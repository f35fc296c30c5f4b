"""Codec interface, common container envelope, and the method registry.

Every compressor produces a self-describing blob::

    [magic u8][dtype u8][ndims u8][count u64][dims u32 * ndims][payload]

so ``decompress`` needs no side channel — mirroring the standalone CLI
compressors benchmarked by the paper, whose outputs are self-contained
files. ``dims`` records the logical extent used by multi-dimensional
predictors (fpzip/ndzip); passing ``dims=None`` compresses as a 1-D array,
which is exactly the paper's Table 9 "1d" configuration.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.core.floatmap import from_words, to_words

_MAGIC = 0xFC
_DTYPES = {0: np.dtype("float32"), 1: np.dtype("float64")}
_DTYPE_CODE = {v: k for k, v in _DTYPES.items()}


def parse_envelope(blob: bytes) -> tuple[np.dtype, int, tuple[int, ...], bytes]:
    """Split a blob into ``(dtype, count, dims, payload)``.

    Raises ``ValueError`` for a blob shorter than its header, bad magic or
    an unknown dtype code. ``dims`` is empty for 1-D input.
    """
    if len(blob) < 11 or len(blob) < 11 + 4 * blob[2]:
        raise ValueError(f"blob of {len(blob)} bytes is shorter than its header")
    magic, dcode, ndims, count = struct.unpack_from("<BBBQ", blob, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad magic 0x{magic:02x}")
    if dcode not in _DTYPES:
        raise ValueError(f"unknown dtype code {dcode}")
    dims = struct.unpack_from(f"<{ndims}I", blob, 11)
    return _DTYPES[dcode], count, dims, blob[11 + 4 * ndims :]


class CodecFailure(Exception):
    """A codec declined or failed on this input (the paper's "-" entries)."""


@dataclass
class MethodInfo:
    """Table-1 metadata describing a studied method."""

    name: str
    year: int
    domain: str  # HPC | Database | general
    precision: str  # "S,D" | "D"
    arch: str  # CPU | GPU
    parallel: str  # serial | threads | SIMD + threads | SIMT
    trait: str  # predictor family used in Fig. 6b groupings
    group: str = "other"  # dictionary | delta | lorenzo | other (Fig. 6b)


class Codec:
    """Base codec: envelope handling + the compress/decompress contract.

    Subclasses implement ``_encode(words, dims) -> bytes`` and
    ``_decode(payload, wdt, count, dims) -> words`` over unsigned words
    of the input's width (``wdt`` is uint32 or uint64). ``decompress``
    returns empty input itself, so ``_decode`` always sees ``count > 0``;
    the words it returns may be wider than ``wdt`` and are cast back.
    """

    info: MethodInfo

    def compress(self, arr: np.ndarray, dims: tuple[int, ...] | None = None) -> bytes:
        a = np.ascontiguousarray(arr)
        if a.ndim > 1 and dims is None:
            dims = a.shape
        flat = a.reshape(-1)
        dt = np.dtype(flat.dtype)
        if dt not in _DTYPE_CODE:
            raise TypeError(f"unsupported dtype {dt}")
        dims = tuple(int(d) for d in (dims or ()))
        if dims and int(np.prod(dims)) != flat.size:
            raise ValueError(f"dims {dims} do not match {flat.size} values")
        header = struct.pack(
            f"<BBBQ{len(dims)}I", _MAGIC, _DTYPE_CODE[dt], len(dims), flat.size, *dims
        )
        payload = self._encode(to_words(flat), dims or (flat.size,))
        return header + payload

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


_REGISTRY: dict[str, type[Codec]] = {}


def register(cls: type[Codec]) -> type[Codec]:
    """Class decorator adding a codec to the global registry by its name."""
    _REGISTRY[cls.info.name] = cls
    return cls


def all_methods() -> dict[str, MethodInfo]:
    _ensure_loaded()
    return {name: cls.info for name, cls in _REGISTRY.items()}


#: The 14 method columns of Tables 4/5 in paper order. Dzip is registered
#: but excluded, as in the paper (its KB/s speed is impractical — §4.5).
TABLE4_METHODS = [
    "pFPC",
    "SPDP",
    "fpzip",
    "shf+LZ4",
    "shf+zstd",
    "ndzip-C",
    "BUFF",
    "Gorilla",
    "Chimp",
    "GFC",
    "MPC",
    "nv::LZ4",
    "nv::btcomp",
    "ndzip-G",
]

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
GPU_METHODS = {"GFC", "MPC", "nv::LZ4", "nv::btcomp", "ndzip-G"}


def _ensure_loaded() -> None:
    """Import codec modules so their ``@register`` decorators run."""
    from repro.codecs import (  # noqa: F401
        bitshuffle,
        buff,
        chimp,
        dzip_lite,
        fpzip_like,
        gfc,
        gorilla,
        mpc,
        ndzip,
        nvcomp_like,
        pfpc,
        spdp,
    )


def load_codec(name: str) -> Codec:
    """Instantiate a registered codec by Table-4 column name.

    Imports every codec module first, so it also works in fresh Spark
    executor workers.
    """
    _ensure_loaded()
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; known: {sorted(_REGISTRY)}") from None
