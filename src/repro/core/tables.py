"""Builders that turn per-dataset metrics into the paper's evaluation tables.

Pure pandas, with no Spark: each sweep-backed table declares its cells,
(dataset, method, block_bytes) tuples, which no scale changes
(``table*_cells``; Tables 4, 5 and 6 share theirs, as in the paper), and
its builder takes the per-dataset metrics of those cells, which
``repro.run`` computes and formats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.codecs.base import TABLE4_METHODS, TABLE10_METHODS
from repro.core import stats
from repro.core.metrics import harmonic_mean
from repro.data.corpus import DOMAINS, corpus

#: Table 9's methods: the ones whose predictors take dimension information.
DIM_METHODS = ["GFC", "MPC", "fpzip", "ndzip-C", "ndzip-G"]

#: Table 9's 1d block size, 1 TiB: larger than any dataset, so one flat block each.
FLAT_BLOCK_BYTES = 1 << 40

#: Table 11's methods (paper omits BUFF and the nvCOMP binaries there).
TABLE11_METHODS = [
    "pFPC", "SPDP", "fpzip", "shf+LZ4", "shf+zstd", "ndzip-C",
    "Gorilla", "Chimp", "GFC", "MPC", "ndzip-G",
]


def _ordered_columns(columns) -> list[str]:
    return [m for m in TABLE4_METHODS if m in set(columns)]


def table4_cells() -> list[tuple]:
    """Tables 4-6's cells: every dataset whole."""
    return [(s.name, m, None) for s in corpus() for m in TABLE4_METHODS]


def table4(metrics: pd.DataFrame) -> pd.DataFrame:
    """Table 4: CR per dataset × method, with domain and overall harmonic means."""
    name_order = [s.name for s in corpus()]
    domain_of = {s.name: s.domain for s in corpus()}
    pivot = metrics.pivot_table(index="dataset", columns="method", values="cr")
    pivot = pivot.reindex([n for n in name_order if n in pivot.index])
    pivot = pivot[_ordered_columns(pivot.columns)]
    out_rows = []
    for dom in DOMAINS:
        names = [n for n in pivot.index if domain_of[n] == dom]
        if not names:
            continue
        sub = pivot.loc[names]
        out_rows.append(sub)
        hm = sub.apply(harmonic_mean, axis=0)
        hm.name = f"{dom} Domain-avg"
        out_rows.append(hm.to_frame().T)
    overall = pivot.apply(harmonic_mean, axis=0)
    overall.name = "Overall-avg"
    out_rows.append(overall.to_frame().T)
    return pd.concat(out_rows)


@dataclass
class RankingSummary:
    friedman: stats.FriedmanResult
    cd: float
    order: list[str]  # methods by average rank, best first
    groups: list[list[str]]  # CD-diagram cliques


def ranking_summary(metrics: pd.DataFrame) -> RankingSummary:
    """Fig. 7b's Friedman + Nemenyi analysis over the CR matrix."""
    pivot = metrics.pivot_table(index="dataset", columns="method", values="cr")
    cols = _ordered_columns(pivot.columns)
    pivot = pivot[cols]
    res = stats.friedman_test(pivot.to_numpy())
    cd = stats.nemenyi_cd(len(cols), len(pivot))
    order = [cols[i] for i in np.argsort(res.avg_ranks)]
    groups = stats.cd_groups(res.avg_ranks, cols, cd)
    return RankingSummary(res, cd, order, groups)


def table5(metrics: pd.DataFrame) -> pd.DataFrame:
    """Table 5: average compression & decompression throughput (GB/s)."""
    agg = metrics.groupby("method")[["ct_gbs", "dt_gbs"]].mean()
    agg = agg.loc[_ordered_columns(agg.index)]
    return agg.T.rename(index={"ct_gbs": "avg. comp", "dt_gbs": "avg. decomp"})


def table6(metrics: pd.DataFrame) -> pd.DataFrame:
    """Table 6: average end-to-end wall time (ms, incl. modeled H2D/D2H).

    The paper omits the two nvCOMP methods (their binary cannot time
    without I/O); we keep that column selection.
    """
    agg = metrics.groupby("method")[["comp_wall_ms", "decomp_wall_ms"]].mean()
    cols = [m for m in _ordered_columns(agg.index) if not m.startswith("nv::")]
    agg = agg.loc[cols]
    return agg.T.rename(
        index={"comp_wall_ms": "avg. comp", "decomp_wall_ms": "avg. decomp"}
    )


def table9_cells() -> tuple[list[tuple], list[tuple]]:
    """Table 9's md and 1d cells: each multi-dimensional dataset whole
    with its dims, and as one flat block of all its bytes."""
    multi = [s for s in corpus() if len(s.extent) > 1]
    md = [(s.name, m, None) for s in multi for m in DIM_METHODS]
    flat = [(s.name, m, FLAT_BLOCK_BYTES) for s in multi for m in DIM_METHODS]
    return md, flat


def table9(md: pd.DataFrame, flat: pd.DataFrame) -> pd.DataFrame:
    """Table 9: dimension information's influence on CR (md vs 1d) + p-values,
    from the per-dataset metrics of :func:`table9_cells`' two lists."""
    rows = {}
    for meth in DIM_METHODS:
        a, b = (m[m.method == meth].cr.tolist() for m in (md, flat))
        p = stats.mann_whitney_u(a, b)[1]
        rows[meth] = {"hmean_md": harmonic_mean(a), "hmean_1d": harmonic_mean(b), "p_value": p}
    return pd.DataFrame(rows).T.loc[DIM_METHODS]


def table10_cells() -> dict[int, list[tuple]]:
    """Table 10's cells, one list per block size."""
    sizes = (4096, 65536, 8 << 20)
    return {bs: [(s.name, m, bs) for s in corpus() for m in TABLE10_METHODS] for bs in sizes}


def table10(metrics: dict[int, pd.DataFrame]) -> pd.DataFrame:
    """Table 10: CR/CT/DT per method under each block size, from the
    per-dataset metrics of each of :func:`table10_cells`' lists."""
    frames = []
    for bs, m in metrics.items():
        agg = pd.DataFrame(
            {
                "avg-CR": m.groupby("method").cr.apply(harmonic_mean),
                "avg-CT (GB/s)": m.groupby("method").ct_gbs.mean(),
                "avg-DT (GB/s)": m.groupby("method").dt_gbs.mean(),
            }
        ).T
        agg = agg[[c for c in TABLE10_METHODS if c in agg.columns]]
        agg.insert(0, "blocksize", _human(bs))
        frames.append(agg)
    out = pd.concat(frames)
    out.index.name = "metrics"
    return out.reset_index().set_index(["blocksize", "metrics"])


def _human(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes >> 20}M"
    return f"{nbytes >> 10}K"
