"""Codec interface, common container envelope, and the method table.

Every compressor produces a self-describing blob::

    [magic u8][dtype u8][ndims u8][count u64][dims u32 * ndims][payload]

so ``decompress`` needs no side channel — mirroring the standalone CLI
compressors benchmarked by the paper, whose outputs are self-contained
files. ``dims`` records the logical extent used by multi-dimensional
predictors (fpzip/ndzip). With ``dims=None`` an array of two or more
dimensions records its own shape and a 1-D array records none. Table 9's
"1d" cells are flat blocks, cut by ``corpus.blocks`` at
``tables.FLAT_BLOCK_BYTES``.
"""
from __future__ import annotations

import importlib
import struct
from typing import NamedTuple

import numpy as np

from repro.core.floatmap import from_words, to_words

_MAGIC = 0xFC
_DTYPES = {0: np.dtype("float32"), 1: np.dtype("float64")}
_DTYPE_CODE = {v: k for k, v in _DTYPES.items()}


def parse_envelope(blob: bytes) -> tuple[np.dtype, int, tuple[int, ...], bytes]:
    """Split a blob into ``(dtype, count, dims, payload)``.

    Raises ``ValueError`` for a blob shorter than its header, bad magic, an
    unknown dtype code or a count no array can hold. ``dims`` is empty for
    1-D input.
    """
    if len(blob) < 11 or len(blob) < 11 + 4 * blob[2]:
        raise ValueError(f"blob of {len(blob)} bytes is shorter than its header")
    magic, dcode, ndims, count = struct.unpack_from("<BBBQ", blob, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad magic 0x{magic:02x}")
    if dcode not in _DTYPES:
        raise ValueError(f"unknown dtype code {dcode}")
    if count > np.iinfo(np.intp).max // _DTYPES[dcode].itemsize:
        raise ValueError(f"count {count} exceeds any array")
    dims = struct.unpack_from(f"<{ndims}I", blob, 11)
    return _DTYPES[dcode], count, dims, blob[11 + 4 * ndims :]


class CodecFailure(Exception):
    """A codec declined or failed on this input (the paper's "-" entries)."""


class Codec:
    """Base codec: envelope handling + the compress/decompress contract.

    Subclasses implement ``_encode(words, dims) -> bytes`` and
    ``_decode(payload, wdt, count, dims) -> words`` over unsigned words
    of the input's width (``wdt`` is uint32 or uint64). ``decompress``
    returns empty input itself, so ``_decode`` always sees ``count > 0``;
    the words it returns may be wider than ``wdt`` and are cast back.
    """

    def compress(self, arr: np.ndarray, dims: tuple[int, ...] | None = None) -> bytes:
        a = np.ascontiguousarray(arr)
        if a.ndim > 1 and dims is None:
            dims = a.shape
        words = to_words(a.reshape(-1))
        dims = tuple(int(d) for d in (dims or ()))
        if dims and int(np.prod(dims)) != words.size:
            raise ValueError(f"dims {dims} do not match {words.size} values")
        header = struct.pack(
            f"<BBBQ{len(dims)}I", _MAGIC, _DTYPE_CODE[a.dtype], len(dims), words.size, *dims
        )
        return header + self._encode(words, dims or (words.size,))

    def decompress(self, blob: bytes) -> np.ndarray:
        dtype, count, dims, payload = parse_envelope(blob)
        if count == 0:
            return np.zeros(0, dtype=dtype)
        wdt = np.dtype(f"u{dtype.itemsize}")
        return from_words(self._decode(payload, wdt, count, dims or (count,)), dtype)

    # -- to be provided by subclasses ------------------------------------
    def _encode(self, words: np.ndarray, dims: tuple[int, ...]) -> bytes:
        raise NotImplementedError

    def _decode(
        self, payload: bytes, wdt: np.dtype, count: int, dims: tuple[int, ...]
    ) -> np.ndarray:
        raise NotImplementedError


class MethodInfo(NamedTuple):
    """A studied method: the class that implements it, as ``"module:Class"``
    under ``repro.codecs``, and its Table-1 row."""

    impl: str
    year: int
    domain: str  # HPC | Database | general
    precision: str  # "S,D" | "D"
    arch: str  # CPU | GPU
    parallel: str  # serial | threads | SIMD + threads | SIMT


#: The 14 method columns of Tables 4/5 in paper order, each with its class
#: and Table-1 row. Table 1's fifteenth method is not built (DESIGN.md
#: substitution #5); ndzip's CPU and GPU rows share one class.
METHODS = {
    "pFPC": MethodInfo("pfpc:PFPC", 2009, "HPC", "D", "CPU", "threads"),
    "SPDP": MethodInfo("spdp:SPDP", 2018, "HPC", "S,D", "CPU", "serial"),
    "fpzip": MethodInfo("fpzip_like:FpzipLike", 2006, "HPC", "S,D", "CPU", "serial"),
    "shf+LZ4": MethodInfo("bitshuffle:BitshuffleLZ4", 2015, "HPC", "S,D", "CPU", "SIMD + threads"),
    "shf+zstd": MethodInfo("bitshuffle:BitshuffleZstd", 2015, "HPC", "S,D", "CPU", "SIMD + threads"),
    "ndzip-C": MethodInfo("ndzip:Ndzip", 2021, "HPC", "S,D", "CPU", "SIMD + threads"),
    "BUFF": MethodInfo("buff:BUFF", 2021, "Database", "S,D", "CPU", "serial"),
    "Gorilla": MethodInfo("gorilla:Gorilla", 2015, "Database", "D", "CPU", "serial"),
    "Chimp": MethodInfo("chimp:Chimp", 2022, "Database", "S,D", "CPU", "serial"),
    "GFC": MethodInfo("gfc:GFC", 2011, "HPC", "D", "GPU", "SIMT"),
    "MPC": MethodInfo("mpc:MPC", 2015, "HPC", "S,D", "GPU", "SIMT"),
    "nv::LZ4": MethodInfo("nvcomp_like:NvLZ4", 2020, "general", "S,D", "GPU", "SIMT"),
    "nv::btcomp": MethodInfo("nvcomp_like:NvBitcomp", 2020, "general", "S,D", "GPU", "SIMT"),
    "ndzip-G": MethodInfo("ndzip:Ndzip", 2021, "HPC", "S,D", "GPU", "SIMT"),
}

#: Table 4's column names, in paper order.
TABLE4_METHODS = list(METHODS)

#: Methods usable in the block-size sweep of Table 10 (the paper omits the
#: ones that "cannot be easily converted to work with blocks").
TABLE10_METHODS = [
    "pFPC",
    "SPDP",
    "shf+LZ4",
    "shf+zstd",
    "Gorilla",
    "Chimp",
    "nv::LZ4",
    "nv::btcomp",
]

#: GPU-class methods whose end-to-end time includes host<->device transfer.
GPU_METHODS = {m for m, info in METHODS.items() if info.arch == "GPU"}


def load_codec(name: str) -> Codec:
    """A new instance of the codec in Table-4 column ``name``. Imports only
    that codec's module, so it also works in fresh Spark executor workers."""
    try:
        module, cls = METHODS[name].impl.split(":")
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; known: {sorted(METHODS)}") from None
    return getattr(importlib.import_module(f"repro.codecs.{module}"), cls)()
