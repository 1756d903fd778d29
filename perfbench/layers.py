"""Per-layer measurements for the traced run.

Each function calls one layer's public functions directly, on the
workload's own inputs and containers, inside ``stage.<layer>`` spans of
the run's :class:`~perfbench.ledger.LayerTrace`.  Metric names map to the
end-to-end metric they should move in ``perfbench/README.md``.
"""

from __future__ import annotations

from io import BytesIO

import numpy as np

from perfbench.inputs import EB
from perfbench.ledger import LayerTrace, Result, median
from repro import telemetry
from repro.core.pipeline import FZGPU
from repro.engine import (
    DEFAULT_CHUNK_BYTES,
    ContainerWriter,
    Engine,
    plan_chunks,
    plan_roi,
    read_containers,
)
from repro.engine.container import read_segment_payload
from repro.planner import (
    PLAN_CONST,
    PLAN_FAST,
    PLAN_INTERP,
    compress_with_plan,
    decide,
    decompress_any,
    interp_compress,
    interp_decompress,
    probe_chunk,
)
from repro.utils.chunking import chunk_shape_for
from repro.utils.pool import Scratch

JOBS = 2


def _mbps(nbytes: float, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


def _ms(seconds) -> float:
    return median(seconds) * 1e3 if seconds else 0.0


def resolved_backend(codec_call) -> str | None:
    """The ``backend`` attribute the codec's own ``fz.compress`` span records.

    Runs ``codec_call`` once with the program's default recorder on, so the
    name is what actually ran rather than what the selection rule predicts.
    """
    rec = telemetry.get_recorder()
    rec.clear()
    rec.enable()
    try:
        codec_call()
    finally:
        rec.disable()
    names = [
        ev["attrs"].get("backend")
        for ev in rec.snapshot()["events"]
        if ev["name"] == "fz.compress"
    ]
    rec.clear()
    return names[0] if names else None


def codec_profile(
    fields, eb_abs: list[float], plan: str, trace: LayerTrace, res: Result,
    expect_backend: str,
) -> float:
    """Single-threaded codec baseline on the engine's own chunks.

    Reports ``backends.*`` (plan ``fast``) and ``planner.*`` (probe, and
    interp on the chunks ``auto`` routes to interp).  Returns the summed
    single-thread time of the workload's own plan over every chunk, the
    numerator of ``engine.parallel_efficiency``.
    """
    scratch = Scratch()
    codec = FZGPU()
    enc_b = dec_b = interp_b = interp_dec_b = 0
    enc_s, dec_s, probe_s, interp_s, interp_dec_s = [], [], [], [], []
    plan_s = 0.0
    checked = False
    for f, eb in zip(fields, eb_abs):
        align = chunk_shape_for(f.data.ndim)[0]
        for a, b in plan_chunks(f.data.shape, align, DEFAULT_CHUNK_BYTES):
            chunk = np.ascontiguousarray(f.data[a:b])
            if not checked:
                # without a scratch arena `auto` would measure another backend
                ran = resolved_backend(lambda: compress_with_plan(
                    chunk, eb, "abs", plan="fast", codec=codec, scratch=scratch))
                res.op(ran == expect_backend,
                       f"baseline ran backend {ran!r}, engine runs {expect_backend!r}")
                checked = True
            with trace.timed("backends", "encode", bytes=chunk.nbytes) as t:
                out = compress_with_plan(
                    chunk, eb, "abs", plan="fast", codec=codec, scratch=scratch)
            enc_s.append(t[0])
            enc_b += chunk.nbytes
            with trace.timed("backends", "decode", bytes=chunk.nbytes) as t:
                decompress_any(out.stream, codec=codec, scratch=scratch)
            dec_s.append(t[0])
            dec_b += chunk.nbytes
            if plan == "fast":
                plan_s += enc_s[-1]
            else:
                with trace.timed("planner", "compress", plan=plan) as t:
                    compress_with_plan(
                        chunk, eb, "abs", plan=plan, codec=codec, scratch=scratch)
                plan_s += t[0]
            with trace.timed("planner", "probe") as t:
                probe = probe_chunk(chunk, eb)
            probe_s.append(t[0])
            if decide(probe, "auto") == PLAN_INTERP:
                with trace.timed("planner", "interp.encode", bytes=chunk.nbytes) as t:
                    stream = interp_compress(chunk, eb, scratch=scratch).stream
                interp_s.append(t[0])
                interp_b += chunk.nbytes
                with trace.timed("planner", "interp.decode", bytes=chunk.nbytes) as t:
                    interp_decompress(stream, scratch=scratch)
                interp_dec_s.append(t[0])
                interp_dec_b += chunk.nbytes
    res.put("backends.encode_MBps", _mbps(enc_b, sum(enc_s)), "MB/s")
    res.put("backends.decode_MBps", _mbps(dec_b, sum(dec_s)), "MB/s")
    res.put("planner.probe_ms", _ms(probe_s), "ms")
    res.put("planner.interp.encode_MBps", _mbps(interp_b, sum(interp_s)), "MB/s")
    res.put("planner.interp.decode_MBps", _mbps(interp_dec_b, sum(interp_dec_s)), "MB/s")
    return plan_s


def container_profile(blobs: list[bytes], trace: LayerTrace, res: Result) -> None:
    """Index parse and segment framing cost, plus the container's own bytes.

    Re-framing the parsed payloads must reproduce the container exactly.
    """
    parse_s, frame_s = [], []
    overhead = 0
    counts = {PLAN_FAST: 0, PLAN_INTERP: 0, PLAN_CONST: 0}
    for blob in blobs:
        src = BytesIO(blob)
        with trace.timed("container", "parse") as t:
            index = read_containers(src)[0]
            payloads = [
                read_segment_payload(src, 0, entry, i)
                for i, entry in enumerate(index.segments)
            ]
        parse_s.append(t[0])
        out = BytesIO()
        with trace.timed("container", "frame") as t:
            writer = ContainerWriter(out, index.shape, index.eb_abs)
            for payload, entry in zip(payloads, index.segments):
                writer.add_segment(payload, entry.extent, plan=entry.plan)
            writer.finish()
        frame_s.append(t[0])
        res.op(out.getvalue() == blob, "re-framed container differs from the original")
        overhead += len(blob) - sum(len(p) for p in payloads)
        for entry in index.segments:
            counts[entry.plan] += 1
    res.put("container.parse_ms", _ms(parse_s), "ms")
    res.put("container.frame_ms", _ms(frame_s), "ms")
    res.put("container.overhead_bytes", overhead, "B")
    res.put("planner.chunks.fast", counts[PLAN_FAST], "count")
    res.put("planner.chunks.interp", counts[PLAN_INTERP], "count")
    res.put("planner.chunks.constant", counts[PLAN_CONST], "count")


def roi_profile(
    engine: Engine, blobs: list[bytes], slabs: list[list[tuple[int, int]]],
    trace: LayerTrace, res: Result,
) -> None:
    """ROI planning and in-process ROI decode on the workload's slabs."""
    plan_s, decode_s, fractions = [], [], []
    decoded = total = 0
    for blob, blob_slabs in zip(blobs, slabs):
        indexes = read_containers(BytesIO(blob))
        for a, b in blob_slabs:
            spec = f"{a}:{b}"
            with trace.timed("roi", "plan") as t:
                plan = plan_roi(indexes, spec)
            plan_s.append(t[0])
            with trace.timed("roi", "decode") as t:
                engine.decompress_roi(blob, spec)
            decode_s.append(t[0])
            decoded += len(plan.tasks)
            total += plan.n_segments
            touched = sum(task.entry.seg_bytes for task in plan.tasks)
            fractions.append(touched / len(blob))
    res.put("roi.plan_ms", _ms(plan_s), "ms")
    res.put("roi.decode_ms", _ms(decode_s), "ms")
    res.put("roi.segments_decoded", decoded, "count")
    res.put("roi.segments_total", total, "count")
    res.put("roi.read_fraction", float(np.mean(fractions)) if fractions else 0.0, "ratio")


def engine_profile(
    fields, plan: str, own: str, chunk_seconds: float,
    trace: LayerTrace, res: Result,
) -> None:
    """``compress_chunked`` wall time per pool/transport, in process.

    ``own`` names the configuration the workload runs (``thread`` or
    ``shm``); its wall time is the denominator of the parallel efficiency
    and the base of the engine overhead.
    """
    configs = {
        "thread": dict(pool="thread"),
        "shm": dict(pool="process", transport="shm"),
        "pickle": dict(pool="process", transport="pickle"),
    }
    walls: dict[str, float] = {}
    for label, kw in configs.items():
        with Engine(jobs=JOBS, plan=plan, **kw) as eng:
            eng.compress_chunked(fields[0].data, EB)  # start the workers
            passes = []
            for _ in range(2):
                wall = 0.0
                for f in fields:
                    with trace.timed("engine", f"compress_chunked.{label}") as t:
                        eng.compress_chunked(f.data, EB)
                    wall += t[0]
                passes.append(wall)
            walls[label] = min(passes)
    res.put("engine.process_vs_thread", walls["shm"] / walls["thread"], "ratio")
    res.put("engine.shm_vs_pickle", walls["shm"] / walls["pickle"], "ratio")
    res.put("engine.parallel_efficiency", chunk_seconds / (JOBS * walls[own]), "ratio")
    res.put("engine.overhead_ms",
            (walls[own] - chunk_seconds / JOBS) / len(fields) * 1e3, "ms")
