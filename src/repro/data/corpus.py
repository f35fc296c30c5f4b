"""Synthetic analogs of the 33 FCBench datasets (Table 3).

The real corpus (SDRBench dumps, Kaggle time series, space-telescope
images, TPC extracts) cannot be downloaded offline; each dataset here is
a deterministic generator reproducing the original's *compressibility
character* — domain, precision, dimensionality, and approximate entropy
class (smooth simulation fields, low-precision sensor streams,
background-dominated images, structure-free transaction columns). See
DESIGN.md substitution #1.

Scale: `scale=1.0` yields ~64K values per dataset (0.25–1 MB — sized so
the pure-Python serial codecs finish a full 33×14 sweep in minutes);
tests use `scale≈0.05`. Paper sizes/entropies are carried on each spec so
EXPERIMENTS.md can print them next to measured values.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

DOMAINS = ("HPC", "TS", "OBS", "DB")


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    domain: str
    dtype_code: str  # "S" single / "D" double, as in Table 3
    extent: tuple[int, ...]  # scaled-down extent at scale=1.0
    paper_bytes: int
    paper_entropy: float
    paper_extent: tuple[int, ...]
    maker: Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]
    seed: int

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.dtype_code == "S" else np.float64)

    def scaled_extent(self, scale: float) -> tuple[int, ...]:
        ext = list(self.extent)
        ext[0] = max(8, int(ext[0] * scale))
        return tuple(ext)

    def nbytes(self, scale: float) -> int:
        """Size in bytes of the dataset generated at ``scale``."""
        return int(np.prod(self.scaled_extent(scale))) * self.dtype.itemsize


# --- generator building blocks ----------------------------------------------

def _field(g: np.random.Generator, shape, octaves: int = 3, noise: float = 1e-4):
    """Multi-octave smooth random field (scientific-simulation analog)."""
    out = np.zeros(shape)
    for o in range(octaves):
        factor = 2**o
        coarse_shape = tuple(max(2, s // (4 * factor)) for s in shape)
        coarse = g.normal(size=coarse_shape)
        for ax, s in enumerate(shape):
            reps = -(-s // coarse.shape[ax])
            coarse = np.repeat(coarse, reps, axis=ax)
            coarse = np.take(coarse, range(s), axis=ax)
        out += coarse / (2.0**o)
    for ax in range(out.ndim):  # cheap smoothing pass per axis
        out = (out + np.roll(out, 1, axis=ax)) / 2.0
    return out + g.normal(scale=noise * np.abs(out).mean(), size=shape)


def _walk(g, shape):
    """1-D random walk (message/streaming analog)."""
    return np.cumsum(g.normal(scale=0.7, size=int(np.prod(shape)))).reshape(shape)


def _sensor(g, shape, decimals: int, period: float = 500.0, amp: float = 20.0):
    """Periodic + drifting low-precision sensor stream (TS analog)."""
    n = int(np.prod(shape))
    t = np.arange(n, dtype=np.float64)
    ncols = shape[1] if len(shape) > 1 else 1
    phase = np.repeat(g.random(max(ncols, 1)) * 7, n // max(ncols, 1) + 1)[:n]
    x = (
        amp * np.sin(2 * np.pi * t / period + phase)
        + np.cumsum(g.normal(scale=0.05, size=n))
        + g.normal(scale=0.5, size=n)
    )
    return np.round(x, decimals).reshape(shape)


def _sparse_bg(g, shape):
    """Near-constant background with a small *contiguous* active region
    (astro-mhd: the colliding-wind zone occupies a corner of an otherwise
    empty grid, so the flattened stream has long constant runs)."""
    out = np.zeros(shape)
    flat = out.reshape(-1)
    # background: a handful of discrete field levels in long runs
    n_runs = 64
    run_vals = g.choice([0.0, 0.1, 0.2], n_runs, p=[0.7, 0.2, 0.1])
    bounds = np.sort(g.integers(0, out.size, n_runs - 1))
    for v, (a, b) in zip(run_vals, zip(np.r_[0, bounds], np.r_[bounds, out.size])):
        flat[a:b] = v
    n_active = int(out.size * 0.15)
    start = int(g.integers(0, max(out.size - n_active, 1)))
    vals = np.round(g.normal(size=n_active) * 3 * 40) / 40  # steps of 1/40
    flat[start : start + n_active] = vals
    return out


def _image(g, shape, n_sources: int = 60, bg_quant: int | None = 256, noise: float = 1.0):
    """Sky image: smooth background + point sources + read noise (OBS).

    Each source ``a * exp(-d² / 4)`` is added only inside a square window
    of radius ``r`` about it, with the same float operations as over the
    whole grid. Sources only add, so every pixel stays at or above the
    background's minimum ``m``; where ``m > 0``, a term outside the window
    is at most ``a_max * exp(-(r+1)² / 4)``, which ``(r+1)² > 4 ln(4 a_max
    / spacing(m))`` keeps below a quarter of any pixel's ulp, so adding it
    would round back to the pixel. Where ``m <= 0`` the window is the grid.
    """
    img = _field(g, shape, octaves=2, noise=0)
    img = img * 10 + 100
    ys = g.integers(0, shape[0], n_sources)
    xs = g.integers(0, shape[1], n_sources)
    amps = g.random(n_sources) * 5000
    r = max(shape)  # the whole grid
    lo = img.min()
    if lo > 0 and n_sources:  # the least r with (r+1)² above the bound
        r = int(np.sqrt(max(4 * np.log(4 * amps.max() / np.spacing(lo)), 0)))
    iy, ix = np.arange(shape[0]), np.arange(shape[1])
    for y0, x0, a in zip(ys, xs, amps):
        wy = slice(max(y0 - r, 0), y0 + r + 1)
        wx = slice(max(x0 - r, 0), x0 + r + 1)
        d2 = (iy[wy] - y0)[:, None] ** 2 + (ix[wx] - x0) ** 2
        img[wy, wx] += a * np.exp(-d2 / 4.0)
    img += g.normal(scale=noise, size=shape)
    if bg_quant:  # ADC quantization drives the low-entropy HDR datasets
        img = np.round(img * bg_quant) / bg_quant
    return img


def _noisy(g, shape, decimals: int | None = None, scale: float = 1.0):
    x = g.normal(scale=scale, size=shape)
    return np.round(x, decimals) if decimals is not None else x


def _taxi(g, shape):
    """NYC-taxi mix: 2-decimal fares/distances + 6-decimal coordinates."""
    n, c = shape
    out = np.empty(shape)
    for j in range(c):
        if j % 3 == 0:
            out[:, j] = np.round(np.abs(g.normal(size=n)) * 12 + 2.5, 2)
        elif j % 3 == 1:
            out[:, j] = np.round(40.7 + g.normal(size=n) * 0.05, 6)
        else:
            out[:, j] = np.round(-74.0 + g.normal(size=n) * 0.05, 6)
    return out


def _quantity(g: np.random.Generator, rows: int) -> np.ndarray:
    return g.integers(1, 51, rows).astype(np.float64)


def _price(g: np.random.Generator, rows: int) -> np.ndarray:
    return np.round(g.random(rows) * 90000 + 900, 2)


def _rate(g: np.random.Generator, rows: int) -> np.ndarray:
    return np.round(g.random(rows) * 0.1, 2)


def _key(g: np.random.Generator, rows: int) -> np.ndarray:
    return g.integers(1, rows + 1, rows).astype(np.float64)


#: The column mixes of the TPC fact tables, cycled over their numeric
#: columns: TPC-H lineitem, TPC-H orders, and the money-heavy sales tables
#: of TPCx-BB and TPC-DS (store, web, catalog).
_LINEITEM = (_quantity, _price, _rate, _rate)
_ORDERS = (_price,)
_SALES = (_price, _quantity, _rate, _key)


def _tpc(mix, cols: int):
    """A maker of ``cols`` float64 columns in ``mix``'s kinds, shaped like
    a TPC fact table's numeric columns (Table 3's DB domain): money at 2
    decimals, quantities, rates and keys as floats. One column is 1-D."""

    def make(g: np.random.Generator, shape):
        rows = shape[0]
        h = np.random.default_rng(int(g.integers(0, 2**31)))
        out = np.empty((rows, cols), dtype=np.float64)
        for c in range(cols):
            out[:, c] = mix[c % len(mix)](h, rows)
        return out.reshape(-1) if cols == 1 else out

    return make


# --- the 33 datasets of Table 3 ---------------------------------------------

def _specs() -> list[DatasetSpec]:
    S = []

    def add(name, domain, tc, extent, pb, pe, pext, maker):
        # a seed stable across processes (unlike hash()), so Spark executors
        # and the DuckDB oracle see identical data: the name's first 8 bytes,
        # or the CRC-32 of the whole name if an earlier dataset has that seed
        seed = int(np.frombuffer(name.encode().ljust(8, b"_")[:8], np.uint64)[0] % 2**31)
        if seed in {s.seed for s in S}:
            seed = zlib.crc32(name.encode()) % 2**31
        S.append(DatasetSpec(name, domain, tc, extent, pb, pe, pext, maker, seed))

    # HPC ------------------------------------------------------------------
    add("msg-bt", "HPC", "D", (65536,), 266_389_432, 23.67, (33298679,),
        _walk)
    add("num-brain", "HPC", "D", (65536,), 141_840_000, 23.97, (17730000,),
        lambda g, sh: _field(g, sh, octaves=3, noise=1e-3) + 8.0)
    add("num-control", "HPC", "D", (65536,), 159_504_744, 24.14, (19938093,),
        lambda g, sh: _field(g, sh, octaves=2, noise=3e-2) + 8.0)
    add("rsim", "HPC", "S", (128, 512), 94_281_728, 18.50, (2048, 11509),
        lambda g, sh: _field(g, sh, octaves=2, noise=1e-3) * 40 + 200.0)
    add("astro-mhd", "HPC", "D", (16, 64, 64), 548_458_560, 0.97, (130, 514, 1026),
        _sparse_bg)
    add("astro-pt", "HPC", "D", (32, 32, 64), 671_088_640, 26.32, (512, 256, 640),
        lambda g, sh: _noisy(g, sh, scale=1e3))
    add("miranda3d", "HPC", "S", (48, 48, 32), 4_294_967_296, 23.08, (1024, 1024, 1024),
        lambda g, sh: _field(g, sh, octaves=3, noise=1e-4) * 3 + 10.0)  # density-like
    add("turbulence", "HPC", "S", (48, 48, 32), 67_108_864, 23.73, (256, 256, 256),
        lambda g, sh: _field(g, sh, octaves=4, noise=3e-2) + 8.0)
    add("wave", "HPC", "S", (48, 48, 32), 536_870_912, 25.27, (512, 512, 512),
        lambda g, sh: np.sin(_field(g, sh, octaves=1, noise=0) * 2) * 5 + 20.0)
    add("hurricane", "HPC", "S", (16, 64, 64), 100_000_000, 23.54, (100, 500, 500),
        lambda g, sh: np.exp(_field(g, sh, octaves=3, noise=1e-2) * 4))
    # TS -------------------------------------------------------------------
    add("citytemp", "TS", "S", (65536,), 11_625_304, 9.43, (2906326,),
        lambda g, sh: _sensor(g, sh, decimals=1, amp=12))
    add("ts-gas", "TS", "S", (65536,), 307_452_800, 13.94, (76863200,),
        lambda g, sh: _sensor(g, sh, decimals=2, period=120, amp=300))
    add("phone-gyro", "TS", "D", (21846, 3), 334_383_168, 14.77, (13932632, 3),
        lambda g, sh: _noisy(g, sh, decimals=4, scale=2.0))
    add("wesad-chest", "TS", "D", (8192, 8), 272_339_200, 13.85, (4255300, 8),
        lambda g, sh: _sensor(g, sh, decimals=4, period=64, amp=5))
    add("jane-street", "TS", "D", (482, 136), 1_810_997_760, 26.07, (1664520, 136),
        lambda g, sh: _noisy(g, sh, scale=1.0))
    add("nyc-taxi", "TS", "D", (9362, 7), 713_711_376, 13.17, (12744846, 7),
        _taxi)
    add("gas-price", "TS", "D", (21846, 3), 886_619_664, 8.66, (36942486, 3),
        lambda g, sh: np.round(1.2 + 0.3 * np.abs(_field(g, sh, octaves=1, noise=0)), 3))
    add("solar-wind", "TS", "S", (4682, 14), 423_980_536, 14.06, (7571081, 14),
        lambda g, sh: _field(g, sh, octaves=2, noise=0.1) * 30)  # full precision
    # OBS ------------------------------------------------------------------
    add("acs-wht", "OBS", "S", (256, 256), 225_000_000, 20.13, (7500, 7500),
        lambda g, sh: _image(g, sh, n_sources=80, bg_quant=None, noise=2.0))
    add("hdr-night", "OBS", "S", (256, 256), 536_870_912, 9.03, (8192, 16384),
        lambda g, sh: _image(g, sh, n_sources=25, bg_quant=64, noise=0.02))
    add("hdr-palermo", "OBS", "S", (256, 256), 843_454_592, 9.34, (10268, 20536),
        lambda g, sh: _image(g, sh, n_sources=15, bg_quant=128, noise=0.01))
    add("hst-wfc3-uvis", "OBS", "S", (256, 256), 108_924_760, 15.61, (5329, 5110),
        lambda g, sh: _image(g, sh, n_sources=60, bg_quant=2048, noise=0.3))
    add("hst-wfc3-ir", "OBS", "S", (160, 160), 24_015_312, 15.04, (2484, 2417),
        lambda g, sh: _image(g, sh, n_sources=40, bg_quant=2048, noise=0.3))
    add("spitzer-irac", "OBS", "S", (256, 256), 164_989_536, 20.54, (6456, 6389),
        lambda g, sh: _image(g, sh, n_sources=120, bg_quant=None, noise=1.5))
    add("g24-78-usb", "OBS", "S", (478, 12, 12), 1_335_668_264, 26.02, (2426, 371, 371),
        lambda g, sh: _noisy(g, sh, scale=100.0))
    add("jws-mirimage", "OBS", "S", (16, 64, 64), 169_082_880, 23.16, (40, 1024, 1032),
        lambda g, sh: _field(g, sh, octaves=2, noise=5e-3) * 50 + 300)
    # DB -------------------------------------------------------------------
    add("tpcH-order", "DB", "D", (65536,), 120_000_000, 23.40, (15000000,),
        _tpc(_ORDERS, 1))
    add("tpcxBB-store", "DB", "D", (5462, 12), 789_920_928, 16.73, (8228343, 12),
        _tpc(_SALES, 12))
    add("tpcxBB-web", "DB", "D", (4370, 15), 986_782_680, 17.64, (8223189, 15),
        _tpc(_SALES, 15))
    add("tpcH-lineitem", "DB", "S", (16384, 4), 959_776_816, 8.87, (59986051, 4),
        _tpc(_LINEITEM, 4))
    add("tpcDS-catalog", "DB", "S", (4370, 15), 172_803_480, 17.34, (2880058, 15),
        _tpc(_SALES, 15))
    add("tpcDS-store", "DB", "S", (5462, 12), 276_515_952, 15.17, (5760749, 12),
        _tpc(_SALES, 12))
    add("tpcDS-web", "DB", "S", (4370, 15), 86_354_820, 17.33, (1439247, 15),
        _tpc(_SALES, 15))
    return S


_CORPUS = _specs()


def corpus() -> list[DatasetSpec]:
    """All 33 dataset specs in Table 3 order."""
    return list(_CORPUS)


def get_spec(name: str) -> DatasetSpec:
    for s in _CORPUS:
        if s.name == name:
            return s
    raise KeyError(name)


def generate(spec: DatasetSpec, scale: float = 1.0) -> np.ndarray:
    """Deterministically generate a dataset at the given scale."""
    g = np.random.default_rng(spec.seed)
    arr = spec.maker(g, spec.scaled_extent(scale))
    return np.ascontiguousarray(arr, dtype=spec.dtype)


def blocks(arr: np.ndarray, nbytes: int | None) -> list[np.ndarray]:
    """Cut ``arr``'s values, flattened in C order, into blocks of whole
    elements of at most ``max(nbytes, itemsize)`` bytes; ``None`` keeps
    ``arr`` as one block, with its shape. An empty array gives one empty block.

    The blocks are read-only views, so a codec cannot change the input that
    the next method compresses.
    """
    whole = np.ascontiguousarray(arr).view()
    whole.flags.writeable = False
    if nbytes is None:
        return [whole]
    flat = whole.reshape(-1)
    step = max(nbytes, arr.itemsize) // arr.itemsize
    return [flat[o : o + step] for o in range(0, flat.size, step)] or [flat]
