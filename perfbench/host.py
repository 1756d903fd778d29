"""Host fingerprint and process memory readings.

Every result is stamped with :func:`fingerprint` so two ledgers are only
compared when they ran on the same kind of host, with the same numpy and
Python, the same code and the same kernel backend.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import sys
import time

#: Environment variables that change which kernels run.  The benchmark
#: clears them before importing the program so an ambient setting cannot
#: change what is measured; their ambient values are recorded.
KERNEL_ENV = ("REPRO_BACKEND", "REPRO_INTERP_IMPL", "REPRO_FAULTS")
#: A steal share beyond this leaves too little of the host to correct for.
MAX_STEAL_SHARE = 0.75


def clear_kernel_env() -> dict[str, str | None]:
    """Unset :data:`KERNEL_ENV` and return the values that were set."""
    return {name: os.environ.pop(name, None) for name in KERNEL_ENV}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, int]:
    """Unified/data cache sizes in bytes per level, e.g. ``{"L2": 2097152}``."""
    sizes: dict[str, int] = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes[f"L{level}"] = int(text.rstrip("KMG")) * scale
    return sizes


def _git_commit(root: pathlib.Path) -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = root / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        packed = (root / ".git" / "packed-refs").read_text()
    except OSError:
        return None
    for line in packed.splitlines():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: pathlib.Path, ambient_env: dict[str, str | None]) -> dict:
    """The host/code/kernel identity every result is stamped with."""
    import numpy as np

    from repro.backends import resolve_backend

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": cache_sizes(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        # the Engine always hands its codec a scratch arena, so this is the
        # backend every engine path (threads, processes, serve) runs
        "auto_backend": resolve_backend(None, pooled=True).name,
        "env": {name: os.environ.get(name) for name in KERNEL_ENV},
        "ambient_env_cleared": {k: v for k, v in ambient_env.items() if v},
        "platform": sys.platform,
    }


def cpu_ticks() -> tuple[int, int]:
    """Host-wide ``(busy, steal)`` CPU ticks from ``/proc/stat``.

    ``busy`` is the time the guest's CPUs ran (user, nice, system, irq,
    softirq); ``steal`` the time they were ready to run while the
    hypervisor ran other guests.
    """
    try:
        with open("/proc/stat") as f:
            ticks = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    ticks += [0] * (8 - len(ticks))
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks[:8]
    return user + nice + system + irq + softirq, steal


class OpClock:
    """Times one operation: ``wall`` seconds, and ``seconds`` less steal.

    On a shared virtual machine the hypervisor hands a varying share of
    the CPUs to other guests ("steal"); ``share`` is steal ÷ (busy +
    steal) over the operation, the share of the guest's runnable CPU time
    it lost, and ``seconds = wall * (1 - share)`` is the time the
    operation would have taken with the CPUs to itself.  On bare metal
    ``seconds == wall``.
    """

    def __enter__(self) -> "OpClock":
        self._ticks = cpu_ticks()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        busy, steal = (b - a for a, b in zip(self._ticks, cpu_ticks()))
        self.share = (
            min(steal / (busy + steal), MAX_STEAL_SHARE) if busy + steal > 0 else 0.0
        )
        self.seconds = self.wall * (1.0 - self.share)
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise KeyError(f"VmHWM not in /proc/{pid}/status")
