"""Reference kernels that take the shared machine's speed drift out of the
timings.

On the 2-core machine this benchmark was built on, the same code ran up to
30 % slower for minutes at a time, with the run's own CPU time slowing just
as much.  Wall times of the same code then differed by more than the bounds
between two sets of runs.  So each verdict's wall time is rescaled by the
speed of a fixed kernel timed right before and right after it:

    reported = wall * REF / mean(kernel time before, kernel time after)

Each kernel is benchmark code that no change to lkholonomy can touch, and it
does the kind of work the workload spends its time on.  REF is the kernel's
time at the machine's usual speed, so reported times stay close to wall
seconds.  The raw wall times are kept in the results file.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

_REPEATS = 3


def _jet_product(a: dict, b: dict, order: int) -> dict:
    """Truncated product of sparse series keyed by exponent tuples: the
    inner loop of the jet kernel, frozen here as a reference."""
    out: dict = {}
    for (I1, J1), c1 in a.items():
        d1 = sum(I1) + sum(J1)
        for (I2, J2), c2 in b.items():
            if d1 + sum(I2) + sum(J2) > order:
                continue
            key = (tuple(x + y for x, y in zip(I1, I2)),
                   tuple(x + y for x, y in zip(J1, J2)))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _series(n_coords: int, degree: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for _ in range(60):
        e = rng.multinomial(int(rng.integers(0, degree + 1)), [1 / (2 * n_coords)] * (2 * n_coords))
        out[(tuple(int(x) for x in e[:n_coords]), tuple(int(x) for x in e[n_coords:]))] = \
            complex(rng.standard_normal(), rng.standard_normal())
    return out


_A, _B = _series(3, 4, 1), _series(3, 4, 2)
_M = np.random.default_rng(0).standard_normal((160, 120))
_svd = np.linalg.svd  # bound now, so a traced run does not count the kernel


def _python_kernel() -> None:
    _jet_product(_A, _B, 6)


def _lapack_kernel() -> None:
    _svd(_M, full_matrices=True)


# kernel name -> (kernel, REF seconds)
KERNELS = {
    "python": (_python_kernel, 3.0e-3),
    "lapack": (_lapack_kernel, 2.5e-3),
}


def kernel_time(name: str) -> float:
    """Best of a few timings of the named kernel."""
    fn = KERNELS[name][0]
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def scale(name: str, before: float, after: float) -> float:
    """Factor that turns a wall time measured between the two kernel times
    into seconds at the reference speed."""
    return 2.0 * KERNELS[name][1] / (before + after)
