"""Evaluation metrics of §5.2 and dataset statistics of Table 3.

CR = orig/comp size; CT/DT = orig size / (de)compression time. Overall
aggregation follows the paper: harmonic mean for compression ratios,
arithmetic mean for throughputs. Times are best of k runs
(:func:`best_of`), for the codecs and the roofline's machine ceilings alike.
"""
from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

_T = TypeVar("_T")


def best_of(runs: int, fn: Callable[[], _T]) -> tuple[_T, int]:
    """The result of ``fn()`` and its fastest wall time in ns over ``runs`` calls."""
    best = 2**63 - 1
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        out = fn()
        best = min(best, time.perf_counter_ns() - t0)
    return out, best


def harmonic_mean(xs) -> float:
    """Harmonic mean over finite positive entries (paper's CR aggregate)."""
    a = np.asarray([x for x in xs if np.isfinite(x) and x > 0], dtype=np.float64)
    if a.size == 0:
        return float("nan")
    return float(a.size / np.sum(1.0 / a))


def value_entropy(arr: np.ndarray) -> float:
    """Shannon entropy of the distinct-value distribution, bits per value.

    This is the "entropy" column of Table 3. Note it is capped by
    log2(sample size): the paper's multi-GB datasets can reach ~26 bits,
    our scaled-down corpus tops out around 16 — the *relative* ordering
    across datasets is the comparable quantity (DESIGN.md substitution #1).
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    words = flat.view(np.uint32 if flat.dtype.itemsize == 4 else np.uint64)
    _, counts = np.unique(words, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))
