"""``archive`` / ``archive_auto``: an in-process Engine over Table 1 fields.

One caller runs a closed loop, field by field: ``compress_chunked`` ->
``decompress_chunked`` -> :data:`ROI_READS` in-process ROI reads.  The
workloads differ only in the engine's request plan (``fast`` or ``auto``).
"""

from __future__ import annotations

import time
from io import BytesIO

import numpy as np

from perfbench import inputs, layers
from perfbench.host import OpClock, peak_rss_mb
from perfbench.inputs import EB
from perfbench.ledger import LayerTrace, Result, median
from repro.engine import Engine, read_containers
from repro.metrics import check_error_bound, psnr

#: Engine constructions timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: ROI reads per field per pass (timed apart from compress/decompress).
ROI_READS = 2
OPS = ("compress", "decompress", "roi")


class _Loop:
    """State of the closed loop: samples, first-pass references, checks."""

    def __init__(self, fields, rng, res: Result) -> None:
        self.fields = fields
        self.rng = rng
        self.res = res
        self.blobs: dict[str, bytes] = {}
        self.eb_abs: dict[str, float] = {}
        self.psnr: dict[str, float] = {}
        self.slabs: dict[str, list[tuple[int, int]]] = {}
        #: latency samples (ms) per operation class
        self.lat = {op: [] for op in OPS}
        #: mean latency (ms) per operation class, one entry per pass
        self.pass_ms = {op: [] for op in OPS}
        self.c_mbps: list[float] = []
        self.d_mbps: list[float] = []
        self.pass_s: list[float] = []

    def one_pass(self, eng: Engine, trace: LayerTrace) -> None:
        res = self.res
        c_bytes = d_bytes = 0
        c_s = d_s = 0.0
        lat = {op: [] for op in OPS}
        t_pass = time.perf_counter()
        with trace.root("pass"):
            for f in self.fields:
                try:
                    with OpClock() as clock, \
                            trace.layer("engine", "compress_chunked", field=f.name):
                        blob = eng.compress_chunked(f.data, EB)
                except Exception as exc:  # counted, the loop goes on
                    res.op(False, f"compress {f.name}: {exc!r}")
                    continue
                first = self.blobs.setdefault(f.name, blob)
                if not res.op(blob == first, f"compress {f.name}: output changed between passes"):
                    continue
                lat["compress"].append(clock.seconds * 1e3)
                c_bytes += f.nbytes
                c_s += clock.seconds
                if f.name not in self.eb_abs:
                    self.eb_abs[f.name] = read_containers(BytesIO(blob))[0].eb_abs
                try:
                    with OpClock() as clock, \
                            trace.layer("engine", "decompress_chunked", field=f.name):
                        recon = eng.decompress_chunked(blob)
                except Exception as exc:
                    res.op(False, f"decompress {f.name}: {exc!r}")
                    continue
                ok = recon.shape == f.data.shape and check_error_bound(
                    f.data, recon, self.eb_abs[f.name]
                )
                if not res.op(ok, f"decompress {f.name}: error bound violated"):
                    continue
                lat["decompress"].append(clock.seconds * 1e3)
                d_bytes += f.nbytes
                d_s += clock.seconds
                if f.name not in self.psnr:
                    self.psnr[f.name] = psnr(f.data, recon)
                for _ in range(ROI_READS):
                    a, b = inputs.draw_slab(self.rng, f.data.shape[0])
                    self.slabs.setdefault(f.name, []).append((a, b))
                    try:
                        with OpClock() as clock, \
                                trace.layer("roi", "decompress_roi", field=f.name):
                            part = eng.decompress_roi(blob, f"{a}:{b}")
                    except Exception as exc:
                        res.op(False, f"roi {f.name}[{a}:{b}]: {exc!r}")
                        continue
                    if res.op(np.array_equal(part, recon[a:b]),
                              f"roi {f.name}[{a}:{b}] differs from the full decode"):
                        lat["roi"].append(clock.seconds * 1e3)
        self.pass_s.append(time.perf_counter() - t_pass)
        for op, samples in lat.items():
            self.lat[op] += samples
            if samples:
                self.pass_ms[op].append(float(np.mean(samples)))
        if c_s and d_s:
            self.c_mbps.append(c_bytes / 1e6 / c_s)
            self.d_mbps.append(d_bytes / 1e6 / d_s)

    def run_for(self, eng: Engine, seconds: float, trace: LayerTrace) -> OpClock:
        """Whole passes until ``seconds`` have elapsed."""
        with OpClock() as clock:
            t0 = time.perf_counter()
            while True:
                self.one_pass(eng, trace)
                if time.perf_counter() - t0 >= seconds:
                    break
        return clock


def run(plan: str, seed: int, seconds: float, tiny: bool,
        res: Result, trace: LayerTrace, backend: str) -> None:
    fields = inputs.archive_fields(seed, tiny)
    loop = _Loop(fields, inputs.slab_rng(seed), res)
    setup = []
    eng = None
    for _ in range(SETUP_REPEATS):
        if eng is not None:
            eng.close()
        with OpClock() as clock:
            eng = Engine(jobs=layers.JOBS, pool="thread", plan=plan)
            blob = eng.compress_chunked(fields[0].data, EB)
        setup.append(clock.seconds)
        first = loop.blobs.setdefault(fields[0].name, blob)
        res.op(blob == first, "setup compress output changed between engines")
    try:
        if trace.enabled:
            _traced(loop, eng, plan, seconds, res, trace, backend)
            return
        clock = loop.run_for(eng, seconds, trace)
    finally:
        eng.close()
    total_in = sum(f.nbytes for f in fields)
    total_out = sum(len(loop.blobs[f.name]) for f in fields if f.name in loop.blobs)
    res.put("setup_s", median(setup), "s")
    res.put("compress_MBps", median(loop.c_mbps), "MB/s")
    res.put("decompress_MBps", median(loop.d_mbps), "MB/s")
    res.put("ratio", total_in / total_out, "ratio")
    res.put("psnr_db", float(np.mean(list(loop.psnr.values()))), "dB")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.put("success_rate", 1.0 - res.failed / max(res.attempted, 1), "ratio")
    res.put("requests_per_s", sum(map(len, loop.lat.values())) / clock.seconds, "1/s")
    for op in OPS:
        # the fields differ 8x in size and an ROI read may land on a
        # constant segment, so one call's latency has a clustered
        # distribution whose median jumps between clusters; the median
        # over passes of the per-pass mean latency does not
        res.put(f"{op}_p50_ms", median(loop.pass_ms[op]), "ms")
    res.put_tail("roi_tail_ms", loop.lat["roi"])
    res.put_tail("compress_tail_ms", loop.lat["compress"])
    res.details["host_steal_share"] = clock.share
    res.details["pass_compress_MBps"] = loop.c_mbps
    res.details["pass_decompress_MBps"] = loop.d_mbps
    res.details["input_bytes"] = {f.name: f.nbytes for f in fields}


def _traced(loop: _Loop, eng: Engine, plan: str, seconds: float,
            res: Result, trace: LayerTrace, backend: str) -> None:
    """Untraced then traced halves of the loop, then the layer profiles."""
    loop.run_for(eng, seconds / 2, LayerTrace(False))
    untraced = median(loop.pass_s)
    n = len(loop.pass_s)
    loop.run_for(eng, seconds / 2, trace)
    res.put("trace.overhead", median(loop.pass_s[n:]) / untraced, "ratio")
    res.put("unattributed_share", trace.unattributed_share("pass"), "ratio")
    fields = loop.fields
    blobs = [loop.blobs[f.name] for f in fields]
    with trace.root("layers"):
        chunk_s = layers.codec_profile(
            fields, [loop.eb_abs[f.name] for f in fields], plan, trace, res, backend
        )
        layers.container_profile(blobs, trace, res)
        layers.roi_profile(
            eng, blobs, [loop.slabs[f.name][:ROI_READS] for f in fields], trace, res
        )
        layers.engine_profile(fields, plan, "thread", chunk_s, trace, res)
    res.put("roi.chunks_skipped",
            res.metrics["roi.segments_total"]["value"]
            - res.metrics["roi.segments_decoded"]["value"], "count")
    # the archive path never reaches the server or the shared-memory pool
    for name, unit in SERVER_ONLY_METRICS:
        res.put(name, 0.0, unit)


#: Per-layer metrics only the ``service`` workload's server can report.
SERVER_ONLY_METRICS = (
    ("serve.ttfb_ms.compress", "ms"),
    ("serve.ttfb_ms.decompress", "ms"),
    ("serve.ttfb_ms.roi", "ms"),
    ("serve.overhead_ms.compress", "ms"),
    ("serve.overhead_ms.decompress", "ms"),
    ("serve.overhead_ms.roi", "ms"),
    ("serve.shed", "count"),
    ("serve.aborted_streams", "count"),
    ("pool.shm.hit_ratio", "ratio"),
    ("pool.shm.growth_bytes", "B"),
    ("pool.shm.hit", "count"),
    ("pool.shm.miss", "count"),
    ("pool.shm.retire", "count"),
    ("pool.shm.unlink", "count"),
    ("engine.retry", "count"),
)
