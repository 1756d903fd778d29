"""``service``: ``repro serve`` in a subprocess, driven over HTTP.

The server runs ``--jobs 2 --pool process`` (``transport=auto``, i.e. the
shared-memory arena).  One client process holds :data:`CLIENTS` keep-alive
connections, one per thread, each in a closed loop.  A cycle uploads a
seeded field (``POST /v1/compress``), decodes the returned container once
(``POST /v1/decompress``) and makes :data:`ROI_READS` row-slab reads
(``POST /v1/decompress?slab=``).
"""

from __future__ import annotations

import http.client
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from io import BytesIO

import numpy as np

from perfbench import inputs, layers
from perfbench.host import OpClock, peak_rss_mb
from perfbench.inputs import EB
from perfbench.ledger import LayerTrace, Result, median
from repro.engine import Engine, read_containers
from repro.metrics import check_error_bound, psnr

CLIENTS = 2
ROI_READS = 8
#: Upper end of the seeded think time before each cycle: without it the two
#: closed-loop clients lock into one relative phase for a whole run, and
#: how much their requests overlap then differs from run to run.
THINK_S = 0.1
#: Server start-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds a server may take to print its address or to exit on SIGINT.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: Socket timeout of every request: a wedged server fails the run in time.
REQUEST_TIMEOUT = 60.0
#: ``/metrics`` counters reported as per-layer deltas over the loop.
COUNTERS = (
    "pool.shm.hit", "pool.shm.miss", "pool.shm.growth_bytes", "pool.shm.retire",
    "pool.shm.unlink", "serve.shed", "serve.aborted_streams", "engine.retry",
    "roi.chunks_skipped",
)


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, in its own session."""

    def __init__(self, root) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", str(layers.JOBS), "--pool", "process"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            self.address = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"repro serve exited with {self.proc.wait()}")
                if "listening on http://" in line:
                    host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError(f"repro serve printed no address in {START_TIMEOUT} s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=REQUEST_TIMEOUT)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def counters(self) -> dict[str, float]:
        """Current ``/metrics`` counter totals (summed over labels)."""
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            text = resp.read().decode()
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"/metrics answered {resp.status}")
        totals = dict.fromkeys(COUNTERS, 0.0)
        wanted = {"repro_" + c.replace(".", "_"): c for c in COUNTERS}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            series, value = line.rsplit(" ", 1)
            name = wanted.get(series.split("{", 1)[0])
            if name is not None:
                totals[name] += float(value)
        return totals

    def stop(self) -> None:
        """SIGINT (graceful: the engine unlinks its segments), then reap.

        Whatever is left of the server's session afterwards — a pool
        worker that outlived it — is killed, and waited for.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                return
            time.sleep(0.05)


def _post(conn, target: str, body: bytes, trace: LayerTrace, op: str):
    """One request; returns ``(status, body, latency_s, ttfb_s)``.

    The latency is steal-corrected (:class:`~perfbench.host.OpClock`); the
    time to the response headers is wall time.
    """
    with OpClock() as clock, trace.layer("serve", op):
        t0 = time.perf_counter()
        conn.request("POST", target, body=body,
                     headers={"Content-Type": "application/octet-stream"})
        resp = conn.getresponse()
        ttfb = time.perf_counter() - t0
        data = resp.read()
    return resp.status, data, clock.seconds, ttfb


class _Client:
    """Closed-loop client state shared by the client threads."""

    def __init__(self, fields, refs, seed: int, res: Result) -> None:
        self.fields = fields
        self.bodies = [f.data.tobytes() for f in fields]
        self.refs = refs
        self.eb_abs = [read_containers(BytesIO(r))[0].eb_abs for r in refs]
        self.seed = seed
        self.res = res
        self.lat = {"compress": [], "decompress": [], "roi": []}
        self.ttfb = {"compress": [], "decompress": [], "roi": []}
        self.cycle_s: list[float] = []
        self.requests = 0
        self.psnr: dict[int, float] = {}
        self._lock = threading.Lock()
        self._cycles = [0] * CLIENTS
        self._phase = 0

    def _record(self, op: str, latency: float, ttfb: float) -> None:
        with self._lock:
            self.lat[op].append(latency * 1e3)
            self.ttfb[op].append(ttfb * 1e3)
            self.requests += 1

    def compress(self, conn, i: int, trace: LayerTrace) -> bytes | None:
        shape = ",".join(str(n) for n in self.fields[i].data.shape)
        status, blob, lat, ttfb = _post(
            conn, f"/v1/compress?shape={shape}&eb={EB}&mode=rel",
            self.bodies[i], trace, "compress")
        if self.res.op(status == 200 and blob == self.refs[i],
                       f"compress {self.fields[i].name}: status {status} or a container "
                       f"unlike Engine.compress_chunked's"):
            self._record("compress", lat, ttfb)
            return blob
        return None

    def cycle(self, conn, k: int, trace: LayerTrace, rng) -> None:
        res = self.res
        i = (self._cycles[k] * CLIENTS + k) % len(self.fields)
        self._cycles[k] += 1
        f = self.fields[i]
        t_cycle = time.perf_counter()
        with trace.root("cycle", client=k):
            blob = self.compress(conn, i, trace)
            if blob is None:
                return
            status, data, lat, ttfb = _post(conn, "/v1/decompress", blob, trace,
                                            "decompress")
            recon = None
            if status == 200 and len(data) == f.nbytes:
                recon = np.frombuffer(data, dtype="<f4").reshape(f.data.shape)
            ok = recon is not None and check_error_bound(f.data, recon, self.eb_abs[i])
            if not res.op(ok, f"decompress {f.name}: status {status} or bound violated"):
                return
            self._record("decompress", lat, ttfb)
            if i not in self.psnr:
                self.psnr[i] = psnr(f.data, recon)
            for _ in range(ROI_READS):
                a, b = inputs.draw_slab(rng, f.data.shape[0])
                status, data, lat, ttfb = _post(
                    conn, f"/v1/decompress?slab={a}:{b}", blob, trace, "roi")
                if res.op(status == 200 and data == recon[a:b].tobytes(),
                          f"roi {f.name}[{a}:{b}]: status {status} or bytes unlike "
                          f"the sliced full decode"):
                    self._record("roi", lat, ttfb)
        with self._lock:
            self.cycle_s.append(time.perf_counter() - t_cycle)

    def run_for(self, server: ServerProcess, seconds: float, trace: LayerTrace) -> None:
        """Every client thread cycles until ``seconds`` have elapsed."""
        deadline = time.perf_counter() + seconds
        self._phase += 1

        def client(k: int) -> None:
            rng = np.random.default_rng([self.seed, 64, k, self._phase])
            conn = server.connect()
            try:
                while time.perf_counter() < deadline:
                    time.sleep(rng.uniform(0.0, THINK_S))
                    try:
                        self.cycle(conn, k, trace, rng)
                    except (OSError, http.client.HTTPException) as exc:
                        self.res.op(False, f"client {k}: {exc!r}")
                        conn.close()
                        conn = server.connect()
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def _references(fields) -> list[bytes]:
    """``Engine.compress_chunked`` output under the server's configuration."""
    with Engine(jobs=layers.JOBS, pool="thread") as eng:
        return [eng.compress_chunked(f.data, EB) for f in fields]


def run(root, seed: int, seconds: float, tiny: bool,
        res: Result, trace: LayerTrace, backend: str) -> None:
    fields = inputs.service_fields(seed, tiny)
    client = _Client(fields, _references(fields), seed, res)
    setup = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            with OpClock() as clock:
                server = ServerProcess(root)
                conn = server.connect()
                try:
                    client.compress(conn, 0, LayerTrace(False))
                finally:
                    conn.close()
            setup.append(clock.seconds)
        before = server.counters()
        if trace.enabled:
            _traced(client, server, seconds, res, trace, backend)
        else:
            with OpClock() as clock:
                client.run_for(server, seconds, trace)
        delta = {k: v - before[k] for k, v in server.counters().items()}
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    for _ in range(int(delta["engine.retry"])):
        res.op(False, "server retried an engine task")
    res.details["server_counters"] = delta
    if trace.enabled:
        hits, misses = delta["pool.shm.hit"], delta["pool.shm.miss"]
        res.put("pool.shm.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
                "ratio")
        for name, value in delta.items():
            res.put(name, value, "B" if name.endswith("_bytes") else "count")
        return
    total_in = sum(f.nbytes for f in fields)
    res.put("setup_s", median(setup), "s")
    mb = fields[0].nbytes / 1e6
    res.put("compress_MBps", mb / (median(client.lat["compress"]) / 1e3), "MB/s")
    res.put("decompress_MBps", mb / (median(client.lat["decompress"]) / 1e3), "MB/s")
    res.put("ratio", total_in / sum(len(r) for r in client.refs), "ratio")
    res.put("psnr_db", float(np.mean(list(client.psnr.values()))), "dB")
    res.put("peak_rss_mb", rss, "MB")
    res.put("success_rate", 1.0 - res.failed / max(res.attempted, 1), "ratio")
    res.put("requests_per_s", client.requests / clock.seconds, "1/s")
    res.put("compress_p50_ms", median(client.lat["compress"]), "ms")
    res.put("decompress_p50_ms", median(client.lat["decompress"]), "ms")
    res.put("roi_p50_ms", median(client.lat["roi"]), "ms")
    res.put_tail("roi_tail_ms", client.lat["roi"])
    res.put_tail("compress_tail_ms", client.lat["compress"])
    res.details["host_steal_share"] = clock.share
    res.details["cycles"] = len(client.cycle_s)


def _inprocess_ms(fields, blobs, slabs) -> dict[str, float]:
    """Median in-process Engine time per operation class, server config."""
    times = {"compress": [], "decompress": [], "roi": []}
    with Engine(jobs=layers.JOBS, pool="process") as eng:
        eng.compress_chunked(fields[0].data, EB)  # start the workers
        for f, blob, f_slabs in zip(fields, blobs, slabs):
            t0 = time.perf_counter()
            eng.compress_chunked(f.data, EB)
            t1 = time.perf_counter()
            eng.decompress_chunked(blob)
            times["compress"].append((t1 - t0) * 1e3)
            times["decompress"].append((time.perf_counter() - t1) * 1e3)
            for a, b in f_slabs:
                t0 = time.perf_counter()
                eng.decompress_roi(blob, f"{a}:{b}")
                times["roi"].append((time.perf_counter() - t0) * 1e3)
    return {op: median(v) for op, v in times.items()}


def _traced(client: _Client, server: ServerProcess, seconds: float,
            res: Result, trace: LayerTrace, backend: str) -> None:
    """Untraced then traced halves of the loop, then the layer profiles."""
    client.run_for(server, seconds / 2, LayerTrace(False))
    untraced = median(client.cycle_s)
    n = len(client.cycle_s)
    client.run_for(server, seconds / 2, trace)
    res.put("trace.overhead", median(client.cycle_s[n:]) / untraced, "ratio")
    res.put("unattributed_share", trace.unattributed_share("cycle"), "ratio")
    fields, blobs = client.fields, client.refs
    rng = inputs.slab_rng(client.seed)
    slabs = [[inputs.draw_slab(rng, f.data.shape[0]) for _ in range(ROI_READS)]
             for f in fields]
    inproc = _inprocess_ms(fields, blobs, slabs)
    for op in ("compress", "decompress", "roi"):
        res.put(f"serve.ttfb_ms.{op}", median(client.ttfb[op]), "ms")
        res.put(f"serve.overhead_ms.{op}", median(client.lat[op]) - inproc[op], "ms")
    with trace.root("layers"):
        chunk_s = layers.codec_profile(
            fields, client.eb_abs, "fast", trace, res, backend)
        layers.container_profile(blobs, trace, res)
        with Engine(jobs=layers.JOBS, pool="process") as eng:
            layers.roi_profile(eng, blobs, slabs, trace, res)
        layers.engine_profile(fields, "fast", "shm", chunk_s, trace, res)
