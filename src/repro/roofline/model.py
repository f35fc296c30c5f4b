"""Roofline analysis of the codecs (§6.3, Williams et al. 2009).

The paper profiles each compressor's hottest loop with Intel Advisor /
Nsight on the msg-bt dataset and places it under the machine's roof.
Without those profilers (DESIGN.md substitution #8) the model here is
built from first principles:

* **machine ceilings** are measured in-process — streaming memory
  bandwidth from a large ``ndarray`` copy, peak compute from a blocked
  matmul (NumPy's BLAS, an upper bound like the vendor peak the paper
  plots);
* each codec's **arithmetic intensity** (ops/byte of its dominant stage)
  comes from the algorithm structure: transform codecs touch every byte a
  constant number of times (AI << ridge point ⇒ memory-bound), while
  per-value control-flow codecs (range/XOR control bits, hash predictors,
  LZ matching) spend many ops per byte (⇒ compute-bound);
* the **achieved** throughput axis is measured by timing the codec on the
  msg-bt analog.

The deliverable matches Observation 10: which methods sit near the
bandwidth roof, and which are far below any roof (serial, unbound).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.codecs.base import load_codec
from repro.core.metrics import best_of
from repro.data.corpus import generate, get_spec

#: The dataset the paper profiles (§6.3).
DATASET = "msg-bt"

#: Arithmetic-intensity estimates (ops per byte of input) for each
#: method's dominant stage, from the algorithm structure (§3-§4):
#: pure byte/bit transforms ≈ O(1) op/byte; bit-serial control flow and
#: hash/window searches are tens of ops per byte.
ARITHMETIC_INTENSITY = {
    "pFPC": 12.0,      # two hash predictors + table updates per 8 bytes
    "SPDP": 20.0,      # LZ match search dominates
    "fpzip": 24.0,     # per-symbol entropy coding
    "shf+LZ4": 4.0,    # bit transpose + fast LZ scan
    "shf+zstd": 6.0,   # bit transpose + entropy-coded LZ
    "ndzip-C": 2.5,    # vectorized transform + transpose
    "BUFF": 1.5,       # scale/round + byte scatter
    "Gorilla": 30.0,   # per-value control-bit state machine
    "Chimp": 40.0,     # 128-slot window search per value
    "GFC": 1.5,        # warp-parallel delta + nibble pack
    "MPC": 2.0,        # delta + transpose + zero elision
    "nv::LZ4": 18.0,   # chunked LZ scan
    "nv::btcomp": 1.2, # delta + fixed-width pack
    "ndzip-G": 2.5,
}


@dataclass
class MachineRoof:
    mem_bw_gbs: float       # streaming bandwidth ceiling
    compute_gops: float     # compute ceiling (ops/s, BLAS-backed bound)

    @property
    def ridge_ai(self) -> float:
        """Arithmetic intensity at which the two roofs intersect."""
        return self.compute_gops / self.mem_bw_gbs

    def roof_at(self, ai: float) -> float:
        """Attainable GOPS at a given arithmetic intensity."""
        return min(self.compute_gops, ai * self.mem_bw_gbs)


def measure_machine_roof(nbytes: int = 1 << 27) -> MachineRoof:
    """Measure the container's streaming-copy and BLAS ceilings.

    Buffers are touched once before timing (cold pages fault on first
    write under gVisor, which would understate bandwidth 10×), and the
    best of three runs is kept, as hardware benchmarks do.
    """
    a = np.ones(nbytes // 8, dtype=np.float64)
    b = np.empty_like(a)
    np.copyto(b, a)  # warm both buffers
    _, ns = best_of(3, lambda: np.copyto(b, a))
    mem_bw = 2 * a.nbytes / ns  # read + write streams; bytes/ns = GB/s
    n = 768
    m1 = np.ones((n, n))
    m2 = np.ones((n, n))
    m1 @ m2  # BLAS thread-pool spin-up
    _, ns = best_of(3, lambda: m1 @ m2)
    gops = 2 * n**3 / ns  # ops/ns = GOPS
    return MachineRoof(mem_bw_gbs=mem_bw, compute_gops=gops)


def profile_codecs(methods, roof: MachineRoof, *, scale: float = 0.5) -> pd.DataFrame:
    """One row per method, placing it under the roof by its best-of-3
    compression time on :data:`DATASET`: achieved GOPS is that throughput
    times the method's arithmetic intensity, against the roof there."""
    arr = generate(get_spec(DATASET), scale)
    rows = []
    for m in methods:
        codec = load_codec(m)
        _, ns = best_of(3, lambda: codec.compress(arr))
        ai = ARITHMETIC_INTENSITY[m]
        achieved = arr.nbytes / ns * ai  # bytes/ns = GB/s, × ops/byte
        attainable = roof.roof_at(ai)
        bound = "memory" if ai < roof.ridge_ai else "compute"
        rows.append((m, ai, achieved, attainable, bound, achieved / attainable))
    columns = ["method", "ai_ops_per_byte", "achieved_gops", "roof_gops", "bound", "utilization"]
    return pd.DataFrame(rows, columns=columns)
