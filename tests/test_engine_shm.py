"""Shared-memory data plane: byte identity, lifecycle, and leak regression.

The shm transport changes *how* bytes move between the parent and process
workers — never *which* bytes.  The contract under test:

* **byte identity** — every entry point produces streams byte-identical to
  the pickle transport, across jobs x pool x backend x plan, including
  chunked containers and file streaming (descriptors point at an mmap);
* **lifecycle** — segments are leased, refcounted, and unlinked by the
  parent; a worker crash, hang, or timeout must not leak a single
  ``/dev/shm`` entry, and a timed-out task's output block is *retired*
  (unlinked, never recycled) so a wedged stale writer cannot corrupt a
  later lease;
* **hygiene** — no ``resource_tracker`` warnings: workers attach without
  registering, the parent is the sole unlink owner (proved by a
  ``-W error`` subprocess);
* **hardening** — the parent-side header peek never allocates for crafted
  headers (caps + pickle fallback).

Fast-tier tests keep to one small process pool; the full differential
matrix, chaos-plan leak regression, the soak and the serve wire path are
tier-2 (``RUN_SLOW=1``), matching the chaos suite's convention.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import faults, telemetry
from repro.engine import Engine, TaskFailure
from repro.errors import ConfigError
from repro.utils.pool import (
    MmapDescriptor,
    Scratch,
    SharedArena,
    ShmDescriptor,
    mmap_descriptor_for,
    shm_available,
)

EB = 1e-3
FAST = {"backoff": 0.001}
JOBS = int(os.environ.get("ENGINE_JOBS", "2"))

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no POSIX/Win32 shared memory on this platform"
)


def _segments() -> list[str]:
    """Names of live shared-memory segments (POSIX tmpfs view)."""
    return sorted(glob.glob("/dev/shm/psm_*")) if os.path.isdir("/dev/shm") else []


@pytest.fixture(autouse=True)
def _no_segment_leak():
    """Every test in this file must leave /dev/shm exactly as it found it."""
    before = _segments()
    yield
    leaked = [name for name in _segments() if name not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _fields(n: int = 6, seed: int = 5) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 3 == 2:  # constant-plan bait
            out.append(np.full((20, 24), 1.5, np.float32))
        else:
            out.append(
                np.cumsum(rng.standard_normal((24, 20)), axis=0).astype(np.float32)
            )
    return out


def _streams(engine: Engine, fields) -> list[bytes]:
    return [r.stream for r in engine.compress_batch(fields, EB, "rel")]


# ---------------------------------------------------------------------------
# unit: arena / descriptors / scratch
# ---------------------------------------------------------------------------


class TestArena:
    def test_lease_release_recycles(self):
        arena = SharedArena()
        try:
            a = arena.lease(1 << 12)
            name = a.name
            a.release()
            b = arena.lease(1 << 12)
            assert b.name == name  # free-listed block is reused
            b.release()
        finally:
            arena.close()
        assert name.split("/")[-1] not in [s.split("/")[-1] for s in _segments()]

    def test_retire_never_recycles(self):
        arena = SharedArena()
        try:
            a = arena.lease(1 << 12)
            name = a.name
            a.retire()
            b = arena.lease(1 << 12)
            assert b.name != name  # retired names are gone for good
            b.release()
        finally:
            arena.close()

    def test_refcount_keeps_block_leased(self):
        arena = SharedArena()
        try:
            a = arena.lease(1 << 12)
            a.retain()
            a.release()
            # still referenced: a fresh lease must not alias it
            b = arena.lease(1 << 12)
            assert b.name != a.name
            a.release()
            b.release()
        finally:
            arena.close()

    def test_close_unlinks_everything(self):
        arena = SharedArena()
        a = arena.lease(1 << 12)
        arena.close()
        with pytest.raises(ConfigError):
            arena.lease(1 << 12)
        del a

    def test_descriptor_roundtrip(self):
        arena = SharedArena()
        try:
            block = arena.lease(1 << 12)
            src = np.arange(64, dtype=np.float32).reshape(8, 8)
            block.asarray(src.shape, src.dtype)[:] = src
            desc = block.descriptor(src.shape, src.dtype)
            seen = desc.attach()
            np.testing.assert_array_equal(seen, src)
            assert not seen.flags.writeable  # read-only unless writable=True
            writer = block.descriptor(src.shape, src.dtype, writable=True).attach()
            writer[0, 0] = 42.0
            assert block.asarray(src.shape, src.dtype)[0, 0] == 42.0
            from repro.utils.pool import detach_all

            detach_all()
            block.release()
        finally:
            arena.close()

    def test_descriptor_for_rejects_foreign_array(self):
        arena = SharedArena()
        try:
            block = arena.lease(1 << 12)
            with pytest.raises(ConfigError):
                block.descriptor_for(np.zeros(4, np.float32))
            block.release()
        finally:
            arena.close()


class TestMmapDescriptor:
    def test_npy_view_addresses_file(self, tmp_path):
        path = tmp_path / "field.npy"
        data = np.arange(4096, dtype=np.float32).reshape(64, 64)
        np.save(path, data)
        mapped = np.load(path, mmap_mode="r")
        desc = mmap_descriptor_for(mapped[16:32])
        assert isinstance(desc, MmapDescriptor)
        np.testing.assert_array_equal(desc.attach(), data[16:32])
        assert desc.nbytes == data[16:32].nbytes

    def test_non_mmap_returns_none(self):
        assert mmap_descriptor_for(np.zeros((4, 4), np.float32)) is None


class TestScratch:
    def test_same_key_different_dtype_same_itemsize(self):
        """Regression: equal-itemsize dtypes sharing a key must not alias types.

        ``uint16`` and ``float16`` have itemsize 2; the old shape-keyed
        reuse handed back the previously-typed view, silently reinterpreting
        bits.  The byte-arena rewrite types the view on every take.
        """
        scratch = Scratch()
        a = scratch.take("k", (8,), np.uint16)
        a[:] = np.arange(8, dtype=np.uint16)
        b = scratch.take("k", (8,), np.float16)
        assert b.dtype == np.float16
        b[:] = np.float16(1.5)
        c = scratch.take("k", (8,), np.uint16)
        assert c.dtype == np.uint16

    def test_same_key_regrows(self):
        scratch = Scratch()
        small = scratch.take("k", (8,), np.float32)
        big = scratch.take("k", (64,), np.float32)
        assert big.size == 64 and small.size == 8


# ---------------------------------------------------------------------------
# unit: transport selection + crafted-header hardening
# ---------------------------------------------------------------------------


class TestTransportKnob:
    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            Engine(transport="carrier-pigeon")

    def test_shm_requires_platform_support(self, monkeypatch):
        monkeypatch.setattr("repro.engine.executor.shm_available", lambda: False)
        with pytest.raises(ConfigError):
            Engine(jobs=2, pool="process", transport="shm")

    def test_thread_pool_never_uses_shm(self):
        with Engine(jobs=2, pool="thread", transport="shm") as engine:
            assert not engine._use_shm()
            assert engine.shared_arena() is None

    def test_pickle_opt_out(self):
        with Engine(jobs=2, pool="process", transport="pickle") as engine:
            assert not engine._use_shm()

    def test_auto_resolves_by_platform(self):
        with Engine(jobs=2, pool="process") as engine:
            assert engine._use_shm() == shm_available()

    def test_pickle_stages_nothing(self):
        """Both transports share one worker path; pickle must never stage."""
        field = np.cumsum(
            np.random.default_rng(3).standard_normal((64, 32)), axis=0
        ).astype(np.float32)
        rec = telemetry.get_recorder()
        rec.clear()
        rec.enabled = True
        try:
            with Engine(
                jobs=2, pool="process", transport="pickle", **FAST
            ) as engine:
                results = engine.compress_batch(_fields(3), EB, "rel")
                blob = engine.compress_chunked(field, EB, "abs", chunk_bytes=2048)
                back = engine.decompress_chunked(blob)
                roi = engine.decompress_roi(blob, "10:50,4:20")
                assert engine._shm is None
            snap = rec.snapshot()
        finally:
            rec.enabled = False
            rec.clear()
        names = [ev["name"] for ev in snap["events"]]
        assert "engine.shm_stage" not in names
        assert "engine.task" in names  # the process pool really ran
        with Engine() as inline:
            assert [r.stream for r in results] == _streams(inline, _fields(3))
            assert blob == inline.compress_chunked(
                field, EB, "abs", chunk_bytes=2048
            )
        np.testing.assert_array_equal(roi, back[10:50, 4:20])


class TestDecodePeekCaps:
    """Crafted streams must not make the *parent* allocate output blocks."""

    def _engine(self):
        return Engine(jobs=JOBS, pool="process", transport="shm", **FAST)

    def test_garbage_peeks_to_none(self):
        with self._engine() as engine:
            assert engine._peek_decode_shape(b"\x00" * 64) is None

    def test_huge_claim_peeks_to_none(self):
        import struct
        import zlib

        from repro.planner import constant as fzcn

        body = struct.pack(
            fzcn._HEADER_FMT, fzcn.CONSTANT_MAGIC, fzcn.CONSTANT_VERSION,
            3, 0, 1 << 17, 1 << 17, 1 << 12, 1e-3, 2.5,
        )
        stream = body + struct.pack(
            fzcn._CRC_FMT, zlib.crc32(body) & 0xFFFFFFFF
        )
        with self._engine() as engine:
            # 2**46 elements sails past MAX_SHM_STAGE_BYTES: no staging
            assert engine._peek_decode_shape(stream) is None

    def test_crafted_stream_still_fails_typed(self):
        """The pickle fallback path preserves the worker's error taxonomy."""
        with self._engine() as engine:
            results = engine.decompress_batch(
                [b"FZIN" + b"\x00" * 90], on_error="return"
            )
            assert isinstance(results[0], TaskFailure)
            assert results[0].error_type == "FormatError"


# ---------------------------------------------------------------------------
# differential: shm vs pickle byte identity (fast-tier smoke + full matrix)
# ---------------------------------------------------------------------------


def _identity_roundtrip(plan: str, backend=None):
    fields = _fields()
    kw = dict(jobs=JOBS, pool="process", plan=plan, backend=backend, **FAST)
    with Engine(transport="shm", **kw) as shm_eng:
        shm_streams = _streams(shm_eng, fields)
        shm_back = shm_eng.decompress_batch(shm_streams)
    with Engine(transport="pickle", **kw) as pk_eng:
        pk_streams = _streams(pk_eng, fields)
        pk_back = pk_eng.decompress_batch(pk_streams)
    assert shm_streams == pk_streams
    for a, b in zip(shm_back, pk_back):
        np.testing.assert_array_equal(a, b)


def test_batch_identity_smoke():
    """Fast tier: one small process pool proves the transport end-to-end."""
    _identity_roundtrip("fast")


@pytest.mark.slow
@pytest.mark.parametrize("plan", ["fast", "auto", "interp"])
def test_batch_identity_plans(plan):
    _identity_roundtrip(plan)


@pytest.mark.slow
def test_batch_identity_reference_backend():
    _identity_roundtrip("fast", backend="reference")


@pytest.mark.slow
@pytest.mark.parametrize("plan", ["fast", "auto"])
def test_chunked_container_identity(plan):
    import io

    rng = np.random.default_rng(9)
    data = np.cumsum(rng.standard_normal((192, 64)), axis=0).astype(np.float32)
    outs = {}
    for transport in ("shm", "pickle"):
        sink = io.BytesIO()
        with Engine(
            jobs=JOBS, pool="process", transport=transport, **FAST
        ) as engine:
            engine.compress_chunked_to(sink, data, EB, "rel", 1 << 14, plan=plan)
            outs[transport] = sink.getvalue()
            back = engine.decompress_chunked_from(io.BytesIO(outs[transport]))
        assert back.shape == data.shape
    assert outs["shm"] == outs["pickle"]


@pytest.mark.slow
def test_compress_file_identity(tmp_path):
    """File streaming ships mmap descriptors; output must match pickle's."""
    rng = np.random.default_rng(13)
    data = np.cumsum(rng.standard_normal((256, 48)), axis=0).astype(np.float32)
    src = tmp_path / "field.npy"
    np.save(src, data)
    outs = {}
    for transport in ("shm", "pickle"):
        dst = tmp_path / f"out-{transport}.fz"
        with Engine(
            jobs=JOBS, pool="process", transport=transport, **FAST
        ) as engine:
            report = engine.compress_file(src, dst, EB, "rel", chunk_bytes=1 << 14)
            assert report.n_chunks >= 2
            back = engine.decompress_file(dst)
        outs[transport] = dst.read_bytes()
        np.testing.assert_allclose(back, data, atol=2 * EB * np.ptp(data))
    assert outs["shm"] == outs["pickle"]


@pytest.mark.slow
def test_mixed_fallback_batch_stays_identical(monkeypatch):
    """Items that decline shm (lease failure) mix with staged ones cleanly."""
    fields = _fields(8)
    kw = dict(jobs=JOBS, pool="process", **FAST)
    with Engine(transport="pickle", **kw) as engine:
        expect = _streams(engine, fields)
    with Engine(transport="shm", **kw) as engine:
        calls = {"n": 0}
        real = engine._try_lease

        def flaky(nbytes):
            calls["n"] += 1
            return None if calls["n"] % 2 else real(nbytes)

        monkeypatch.setattr(engine, "_try_lease", flaky)
        assert _streams(engine, fields) == expect
    assert calls["n"] > 0


# ---------------------------------------------------------------------------
# leak regression: chaos plans, resource_tracker hygiene, soak
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize(
    "plan",
    [
        "worker_crash:at=2",
        "transient_error:p=0.4,seed=7",
        "transient_error:at=1|4,times=99",
    ],
    ids=["crash", "transient", "quarantine"],
)
def test_fault_plans_do_not_leak_segments(plan):
    """Crash/retry/quarantine paths must release every staged block.

    The autouse fixture asserts /dev/shm is clean afterwards; this test
    additionally proves the engine still *recovers* (or quarantines in
    place) with the shm transport active — recovery changes wall-clock,
    never bytes.
    """
    fields = _fields()
    with Engine(jobs=JOBS, pool="process", transport="pickle", **FAST) as eng:
        expect = _streams(eng, fields)
    with faults.installed(faults.FaultPlan.parse(plan)):
        with Engine(
            jobs=JOBS, pool="process", transport="shm", retries=3, **FAST
        ) as engine:
            results = engine.compress_batch(fields, EB, "rel", on_error="return")
    faults.uninstall()
    for i, res in enumerate(results):
        if not isinstance(res, TaskFailure):
            assert res.stream == expect[i]


@pytest.mark.slow
def test_timeout_retires_out_blocks():
    """A hung worker's output block is unlinked, never recycled.

    The stale writer may scribble into its mapping long after the parent
    gave up; retirement makes that write land in an unlinked segment no
    future lease can alias.  The autouse fixture catches the leak half;
    recycling is ruled out by the retire counter.
    """
    from repro import telemetry

    telemetry.enable()
    fields = _fields(4)
    with faults.installed(faults.FaultPlan.parse("worker_hang:at=1,hang_s=30")):
        with Engine(
            jobs=JOBS, pool="process", transport="shm", retries=0,
            task_timeout=1.0, **FAST
        ) as engine:
            results = engine.compress_batch(fields, EB, "rel", on_error="return")
    faults.uninstall()
    assert any(isinstance(r, TaskFailure) for r in results)
    snap = telemetry.get_recorder().snapshot()
    retired = [
        c for c in snap["metrics"]["counters"] if c[0] == "pool.shm.retire"
    ]
    assert retired and retired[0][-1] >= 1


@pytest.mark.slow
def test_no_resource_tracker_warnings():
    """Workers attach segments without registering them: -W error stays green.

    resource_tracker leak complaints surface as UserWarning at interpreter
    shutdown; promoting warnings to errors in a subprocess turns any
    double-registration or orphaned segment into a hard failure.
    """
    code = """
import numpy as np
from repro.engine import Engine

rng = np.random.default_rng(0)
fields = [np.cumsum(rng.standard_normal((24, 20)), 0).astype(np.float32)
          for _ in range(4)]
with Engine(jobs=2, pool="process", transport="shm", backoff=0.001) as eng:
    streams = [r.stream for r in eng.compress_batch(fields, 1e-3, "rel")]
    back = eng.decompress_batch(streams)
for f, b in zip(fields, back):
    assert np.allclose(f, b, atol=2e-3 * np.ptp(f))
print("OK")
"""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", code],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr


@pytest.mark.slow
def test_steady_state_soak_zero_growth():
    """Segment count reaches a plateau: leases recycle instead of accreting."""
    fields = _fields(4)
    with Engine(jobs=JOBS, pool="process", transport="shm", **FAST) as engine:
        _streams(engine, fields)  # warm: arena grows to working-set size
        plateau = len(_segments())
        for _ in range(5):
            streams = _streams(engine, fields)
            engine.decompress_batch(streams)
            assert len(_segments()) <= plateau + 1  # one in-flight grow max
    assert len(_segments()) <= plateau


# ---------------------------------------------------------------------------
# serve: zero-copy upload wire path
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_serve_zero_copy_bodies_match_pickle_engine():
    import io

    from repro import telemetry

    from .serve_support import live_server, request

    telemetry.enable()
    rng = np.random.default_rng(21)
    data = np.cumsum(rng.standard_normal((96, 64)), axis=0).astype(np.float32)
    with live_server(
        jobs=JOBS, pool="process", transport="shm", **FAST
    ) as (server, app, engine):
        status, _, container = request(
            server.address, "POST", "/v1/compress?shape=96,64&eb=1e-3",
            body=data.tobytes(),
        )
        assert status == 200
        status, _, decoded = request(
            server.address, "POST", "/v1/decompress", body=container
        )
        assert status == 200
        chunk_bytes = app.config.chunk_bytes
    np.testing.assert_allclose(
        np.frombuffer(decoded, "<f4").reshape(96, 64), data,
        atol=2 * EB * np.ptp(data),
    )
    sink = io.BytesIO()
    with Engine(jobs=JOBS, pool="process", transport="pickle", **FAST) as eng:
        eng.compress_chunked_to(sink, data, EB, "rel", chunk_bytes)
    assert sink.getvalue() == container
    snap = telemetry.get_recorder().snapshot()
    counted = [
        c for c in snap["metrics"]["counters"] if c[0] == "serve.shm_bodies"
    ]
    assert counted and counted[0][-1] >= 2  # both uploads leased segments
