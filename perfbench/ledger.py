"""Result record, order statistics and bench-side layer spans.

The benchmark's spans are recorded *by the benchmark* around its calls into
each program layer (``backends``, ``planner``, ``engine``, ``container``,
``roi``, ``serve``, ``pool``).  They are named ``stage.<layer>`` so
``repro stats`` renders the per-layer time shares of a written trace with
its existing per-stage table.
"""

from __future__ import annotations

import math
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager

from repro.telemetry import Recorder
from repro.telemetry.export import write_chrome_trace

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with :data:`TAIL_BEYOND` samples beyond it.

    Returns ``(value, percentile, n)``.  With fewer than
    ``TAIL_BEYOND + 1`` samples the maximum is returned as the 100th
    percentile, so the caller can see the tail is unresolved.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


class Result:
    """Operation accounting plus named metrics for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.details: dict[str, object] = {}
        self._lock = threading.Lock()

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation; ``ok=False`` records a failure."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(what)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def put_tail(self, name: str, samples_ms, unit: str = "ms") -> None:
        value, pct, n = tail(samples_ms)
        self.put(name, value, unit)
        self.details[name] = {"percentile": pct, "samples": n}

    def summary(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


class LayerTrace:
    """A private :class:`Recorder` for bench-side layer spans.

    Disabled, every span is the shared no-op, so the untraced run pays
    nothing.  The program's own default recorder is never touched.
    """

    def __init__(self, enabled: bool) -> None:
        self.rec = Recorder(enabled=enabled)

    @property
    def enabled(self) -> bool:
        return self.rec.enabled

    def layer(self, layer: str, op: str, **attrs):
        """Span around one call into ``layer``."""
        return self.rec.span(f"stage.{layer}", dict(attrs, op=op))

    def root(self, name: str, **attrs):
        """Span around one workload pass (the wall time to attribute)."""
        return self.rec.span(f"bench.{name}", attrs)

    @contextmanager
    def timed(self, layer: str, op: str, **attrs):
        """A layer span that always yields its duration (seconds) on exit."""
        box = [0.0]
        with self.rec.timed_span(f"stage.{layer}", dict(attrs, op=op)) as sp:
            yield box
        box[0] = sp.duration

    def events(self) -> list[dict]:
        return self.rec.snapshot()["events"]

    def unattributed_share(self, root: str) -> float:
        """(wall − Σ layer self time) ÷ wall over every ``bench.<root>`` span.

        A root's time not covered by its child layer spans is the
        benchmark's own work (checks, bookkeeping) plus anything a layer
        span does not reach.
        """
        events = self.events()
        child_us: dict[int, float] = defaultdict(float)
        for ev in events:
            child_us[ev["parent"]] += ev["dur_us"]
        wall = 0.0
        unattributed = 0.0
        for ev in events:
            if ev["name"] == f"bench.{root}":
                wall += ev["dur_us"]
                unattributed += ev["dur_us"] - child_us[ev["id"]]
        return unattributed / wall if wall else math.nan

    def write(self, path) -> None:
        write_chrome_trace(self.rec, path)
