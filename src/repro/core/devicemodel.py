"""Host↔device transfer model for GPU-class codecs (§6.1.4).

The container has no GPU (DESIGN.md substitution #3); the GPU methods'
*kernels* run as vectorized NumPy, and their end-to-end wall time adds a
modeled PCIe transfer — the overhead Observation 5 calls out as the
reason ndzip-CPU beats ndzip-GPU end-to-end. 12 GB/s is a typical
effective PCIe 3.0 x16 rate (the paper's Quadro RTX 6000 platform).
"""
from __future__ import annotations

PCIE_BYTES_PER_SEC = 12e9
