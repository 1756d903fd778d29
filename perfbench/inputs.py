"""Seeded workload inputs.

Every input is a pure function of ``(workload, seed, tiny)``: the program
only ever receives the generated arrays.  Fields are generated in a
spawned helper process so that the generators' temporaries never count
toward the benchmark process's peak resident set.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.datasets import DATASETS, Field, generate

#: Relative error bound of every workload (the paper's headline setting).
EB = 1e-3
#: The six Table 1 datasets, in the paper's order.
ARCHIVE_DATASETS = ("hacc", "cesm", "hurricane", "nyx", "qmcpack", "rtm")
#: The service uploads this 3-D dataset, one seeded field per cycle.
SERVICE_DATASET = "nyx"
#: Distinct seeded service fields the client rotates through.
SERVICE_FIELDS = 8
#: ROI reads are row slabs of 1/64th of axis 0.
SLAB_FRACTION = 64


def _shape(dataset: str, tiny: bool) -> tuple[int, ...]:
    shape = DATASETS[dataset].bench_shape
    if not tiny:
        return shape
    if len(shape) == 1:
        return (shape[0] // 32,)
    return (max(8, shape[0] // 4),) + tuple(max(8, d // 4) for d in shape[1:])


def _generate(job: tuple[str, tuple[int, ...], int]) -> np.ndarray:
    dataset, shape, seed = job
    return np.ascontiguousarray(generate(dataset, shape=shape, seed=seed).data)


def _generate_all(jobs: list[tuple[str, tuple[int, ...], int]]) -> list[np.ndarray]:
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return list(pool.map(_generate, jobs))


def archive_fields(seed: int, tiny: bool = False) -> list[Field]:
    """The six Table 1 fields at ``bench_shape`` (37 MB in total)."""
    jobs = [(d, _shape(d, tiny), seed) for d in ARCHIVE_DATASETS]
    return [Field(d, d, a) for d, a in zip(ARCHIVE_DATASETS, _generate_all(jobs))]


def service_fields(seed: int, tiny: bool = False) -> list[Field]:
    """:data:`SERVICE_FIELDS` seeded fields of :data:`SERVICE_DATASET`."""
    seeds = np.random.SeedSequence(seed).generate_state(SERVICE_FIELDS)
    shape = _shape(SERVICE_DATASET, tiny)
    jobs = [(SERVICE_DATASET, shape, int(s)) for s in seeds]
    return [
        Field(SERVICE_DATASET, f"{SERVICE_DATASET}#{i}", a)
        for i, a in enumerate(_generate_all(jobs))
    ]


def slab_rng(seed: int) -> np.random.Generator:
    """The stream ROI slab positions are drawn from."""
    return np.random.default_rng([seed, 64])


def draw_slab(rng: np.random.Generator, rows: int) -> tuple[int, int]:
    """A ``[start, stop)`` row slab covering 1/64th of ``rows``."""
    height = max(1, rows // SLAB_FRACTION)
    start = int(rng.integers(0, rows - height + 1))
    return start, start + height
