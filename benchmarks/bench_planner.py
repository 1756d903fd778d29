"""Planner shootout: interp/constant ratio wins and auto-probe overhead.

Three synthetic field kinds exercise the three segment plans:

* ``quad1d`` / ``cross2d`` — smooth polynomial fields whose cubic
  interpolation residuals collapse while their Lorenzo first differences
  stay wide, so the ``interp`` plan must beat the fused fast path on
  ratio (floor: 2x on ``quad1d``);
* ``const1d`` — a constant block, which the auto planner must shortcut
  to an FZCN stream at >= 50x;
* ``rough1d`` — Gaussian noise, where ``plan="auto"`` must route to the
  fast path with probe overhead inside 1.3x of a forced-``fast`` encode.

Interp throughput is gated as a ratio to fused on ``cross2d``: interp
encode must run at >= 1/3 and decode at >= 1/2 of the fused fast path's
speed.  Both plans are timed interleaved, best of ``SPEED_REPEATS``, so
host steal hits both sides of each ratio alike.

Every plan's reconstruction is checked against the error bound before any
timing is trusted.  Results land in ``benchmarks/results/BENCH_planner.json``;
the committed copy at ``benchmarks/BENCH_planner.json`` is the regression
baseline — a fresh run failing ``GATE_MARGIN`` of a committed figure fails
the gate.  Regenerate after an intentional change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_planner.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
from conftest import RESULTS_DIR, run_once

from repro.harness import render_table
from repro.planner import compress_with_plan, decompress_any

EB = 1e-3
MODE = "abs"
REPEATS = 3

#: Acceptance floors from the planner issue.
INTERP_RATIO_FLOOR = 2.0  # interp ratio vs fused ratio on quad1d
CONST_RATIO_FLOOR = 50.0  # constant-chunk compression ratio
AUTO_OVERHEAD_CEIL = 1.3  # auto wall time vs forced-fast on rough data
INTERP_ENCODE_SPEED_FLOOR = 1 / 3  # interp encode MB/s vs fused on cross2d
INTERP_DECODE_SPEED_FLOOR = 1 / 2  # interp decode MB/s vs fused on cross2d
SPEED_REPEATS = 15
#: A fresh run may fall to this fraction of a committed baseline figure
#: (or exceed 1/GATE_MARGIN of a committed overhead) before the gate fails.
GATE_MARGIN = 0.6

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_planner.json"


def _fields() -> dict[str, np.ndarray]:
    # The fast path writes each chunk-leading quantized value raw, so a
    # field's value range must stay under 2*32767*EB or the fused encode
    # saturates; the quadratic is scaled to a range of 60 to keep both
    # plans honestly inside the bound while its first differences still
    # span hundreds of quantization bins.
    n = 1 << 12
    j = np.arange(n, dtype=np.float64)
    quad = ((j * j) * (60.0 / (n * n))).astype(np.float32)
    i2, j2 = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    cross = ((i2 * j2).astype(np.float64) / np.float64(4096.0)).astype(
        np.float32
    )
    return {
        "quad1d": quad,
        "cross2d": cross,
        "const1d": np.full(1 << 18, 3.25, np.float32),
        "rough1d": np.random.default_rng(7)
        .standard_normal(1 << 18)
        .astype(np.float32),
    }


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interp_speed(data: np.ndarray) -> dict:
    """Interp vs fused encode/decode throughput on one field.

    Each round times all four calls back to back and every figure keeps
    its best round, so a burst of host steal lands on both plans.
    """
    fast = compress_with_plan(data, EB, MODE, plan="fast").stream
    interp = compress_with_plan(data, EB, MODE, plan="interp").stream
    calls = {
        "fast_encode": lambda: compress_with_plan(data, EB, MODE, plan="fast"),
        "interp_encode": lambda: compress_with_plan(
            data, EB, MODE, plan="interp"
        ),
        "fast_decode": lambda: decompress_any(fast),
        "interp_decode": lambda: decompress_any(interp),
    }
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(SPEED_REPEATS):
        for name, fn in calls.items():
            best[name] = min(best[name], _best_of(fn, 1))
    mb = data.nbytes / 1e6
    out = {f"{k}_MBps": mb / v for k, v in best.items()}
    out["encode_vs_fused"] = best["fast_encode"] / best["interp_encode"]
    out["decode_vs_fused"] = best["fast_decode"] / best["interp_decode"]
    return out


def _in_bound(data: np.ndarray, stream: bytes) -> bool:
    recon = decompress_any(stream)
    err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
    # one float32 ulp at the field's magnitude absorbs reconstruction rounding
    ulp = float(np.spacing(np.float32(np.abs(data).max(initial=0.0))))
    return float(err) <= EB * (1.0 + 1e-5) + ulp


def _measure() -> dict:
    fields = _fields()
    out: dict = {
        "eb": EB,
        "mode": MODE,
        "repeats": REPEATS,
        "fields": {},
    }
    for name in ("quad1d", "cross2d"):
        data = fields[name]
        fast = compress_with_plan(data, EB, MODE, plan="fast")
        interp = compress_with_plan(data, EB, MODE, plan="interp")
        out["fields"][name] = {
            "shape": list(data.shape),
            "plan": interp.plan,
            "fast_ratio": fast.original_bytes / fast.compressed_bytes,
            "interp_ratio": interp.original_bytes / interp.compressed_bytes,
            "interp_vs_fast": fast.compressed_bytes / interp.compressed_bytes,
            "in_bound": _in_bound(data, fast.stream)
            and _in_bound(data, interp.stream),
        }
    out["fields"]["cross2d"]["speed"] = _interp_speed(fields["cross2d"])

    const = fields["const1d"]
    auto_const = compress_with_plan(const, EB, MODE, plan="auto")
    out["fields"]["const1d"] = {
        "shape": list(const.shape),
        "plan": auto_const.plan,
        "const_ratio": auto_const.original_bytes / auto_const.compressed_bytes,
        "in_bound": _in_bound(const, auto_const.stream),
    }

    rough = fields["rough1d"]
    auto_rough = compress_with_plan(rough, EB, MODE, plan="auto")
    fast_rough = compress_with_plan(rough, EB, MODE, plan="fast")
    fast_s = _best_of(
        lambda: compress_with_plan(rough, EB, MODE, plan="fast")
    )
    auto_s = _best_of(
        lambda: compress_with_plan(rough, EB, MODE, plan="auto")
    )
    out["fields"]["rough1d"] = {
        "shape": list(rough.shape),
        "plan": auto_rough.plan,
        "fast_ms": fast_s * 1e3,
        "auto_ms": auto_s * 1e3,
        "auto_overhead": auto_s / fast_s,
        "payload_identical": auto_rough.stream == fast_rough.stream,
        "in_bound": _in_bound(rough, auto_rough.stream),
    }
    return out


def test_planner_shootout(benchmark, record_result):
    results = run_once(benchmark, _measure)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_planner.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    if os.environ.get("REPRO_UPDATE_BENCH"):
        BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")

    f = results["fields"]
    rows = [
        {
            "field": name,
            "shape": "x".join(str(d) for d in f[name]["shape"]),
            "plan": f[name]["plan"],
            "figure": fig,
            "in_bound": f[name]["in_bound"],
        }
        for name, fig in (
            ("quad1d", f"interp {f['quad1d']['interp_vs_fast']:.2f}x fused"),
            ("cross2d", f"interp {f['cross2d']['interp_vs_fast']:.2f}x fused"),
            ("const1d", f"ratio {f['const1d']['const_ratio']:.0f}x"),
            ("rough1d", f"auto {f['rough1d']['auto_overhead']:.2f}x fast"),
        )
    ]
    speed = f["cross2d"]["speed"]
    rows.append(
        {
            "field": "cross2d",
            "shape": "x".join(str(d) for d in f["cross2d"]["shape"]),
            "plan": "interp",
            "figure": f"speed {speed['encode_vs_fused']:.2f}x fused encode, "
            f"{speed['decode_vs_fused']:.2f}x decode",
            "in_bound": f["cross2d"]["in_bound"],
        }
    )
    record_result(
        "bench_planner",
        render_table(rows, title=f"Planner shootout at eb={EB:g} {MODE}"),
    )

    for name, field in f.items():
        assert field["in_bound"], f"{name}: reconstruction out of bound"
    assert f["const1d"]["plan"] == "constant"
    assert f["rough1d"]["plan"] == "fast"
    assert f["rough1d"]["payload_identical"], (
        "auto on rough data must emit the forced-fast stream byte-identically"
    )

    failures = []
    if f["quad1d"]["interp_vs_fast"] < INTERP_RATIO_FLOOR:
        failures.append(
            f"quad1d: interp ratio {f['quad1d']['interp_vs_fast']:.2f}x fused "
            f"< floor {INTERP_RATIO_FLOOR}x"
        )
    if f["const1d"]["const_ratio"] < CONST_RATIO_FLOOR:
        failures.append(
            f"const1d: constant ratio {f['const1d']['const_ratio']:.0f}x "
            f"< floor {CONST_RATIO_FLOOR}x"
        )
    if f["rough1d"]["auto_overhead"] > AUTO_OVERHEAD_CEIL:
        failures.append(
            f"rough1d: auto probe overhead {f['rough1d']['auto_overhead']:.2f}x"
            f" fast > ceiling {AUTO_OVERHEAD_CEIL}x"
        )

    for kind, floor in (
        ("encode", INTERP_ENCODE_SPEED_FLOOR),
        ("decode", INTERP_DECODE_SPEED_FLOOR),
    ):
        got = speed[f"{kind}_vs_fused"]
        if got < floor:
            failures.append(
                f"cross2d: interp {kind} at {got:.2f}x fused speed "
                f"< floor {floor:.2f}x"
            )

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    if baseline is not None:
        b = baseline["fields"]
        for name in ("quad1d", "cross2d"):
            got, committed = f[name]["interp_vs_fast"], b[name]["interp_vs_fast"]
            if got < GATE_MARGIN * committed:
                failures.append(
                    f"{name}: interp {got:.2f}x fused regressed below "
                    f"{GATE_MARGIN:.0%} of committed {committed:.2f}x"
                )
        got, committed = f["const1d"]["const_ratio"], b["const1d"]["const_ratio"]
        if got < GATE_MARGIN * committed:
            failures.append(
                f"const1d: ratio {got:.0f}x regressed below "
                f"{GATE_MARGIN:.0%} of committed {committed:.0f}x"
            )
        got = f["rough1d"]["auto_overhead"]
        committed = b["rough1d"]["auto_overhead"]
        if got > committed / GATE_MARGIN:
            failures.append(
                f"rough1d: auto overhead {got:.2f}x grew past "
                f"1/{GATE_MARGIN:.0%} of committed {committed:.2f}x"
            )
    assert not failures, "; ".join(failures)
