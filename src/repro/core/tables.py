"""Builders that turn harness results into the paper's evaluation tables.

One full sweep (33 datasets × 14 methods) feeds Tables 4, 5 and 6, as in
the paper; Tables 9 (dimension info) and 10 (block sizes) each run one
sweep of cells that carry their block size, and Tables 7/8 (scaling) time
their own jobs. Each builder returns pandas frames shaped like the printed
tables, which ``repro.run`` formats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.codecs.base import TABLE4_METHODS, TABLE10_METHODS
from repro.core import stats
from repro.core.harness import cached, per_dataset_metrics, run_cells
from repro.core.metrics import harmonic_mean
from repro.data.corpus import DOMAINS, corpus, get_spec

#: Table 9's methods: the ones whose predictors take dimension information.
DIM_METHODS = ["GFC", "MPC", "fpzip", "ndzip-C", "ndzip-G"]

#: Table 11's methods (paper omits BUFF and the nvCOMP binaries there).
TABLE11_METHODS = [
    "pFPC", "SPDP", "fpzip", "shf+LZ4", "shf+zstd", "ndzip-C",
    "Gorilla", "Chimp", "GFC", "MPC", "ndzip-G",
]


def _ordered_columns(columns) -> list[str]:
    return [m for m in TABLE4_METHODS if m in set(columns)]


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


def _metrics_per_config(spark, cells, configs, *, scale, repeats) -> list[pd.DataFrame]:
    """One sweep of ``cells``; the per-dataset metrics of each config's rows."""
    res = cached(run_cells(spark, cells, scale=scale, repeats=repeats))
    out = [per_dataset_metrics(res.where(c)).toPandas() for c in configs]
    res.unpersist()
    return out


def table9(spark: SparkSession, *, scale: float = 1.0, repeats: int = 1) -> pd.DataFrame:
    """Table 9: dimension information's influence on CR (md vs 1d) + p-values.

    One sweep: each multi-dimensional dataset's md cell compresses it whole
    with its dims, its 1d cell as one flat block of all its bytes."""
    multi = [s for s in corpus() if len(s.extent) > 1]
    cells = [(s.name, m, b) for s in multi for m in DIM_METHODS for b in (None, s.nbytes(scale))]
    md = F.col("block_bytes").isNull()
    both = _metrics_per_config(spark, cells, [md, ~md], scale=scale, repeats=repeats)
    rows = {}
    for meth in DIM_METHODS:
        a, b = (m[m.method == meth].cr.tolist() for m in both)
        p = stats.mann_whitney_u(a, b)[1]
        rows[meth] = {"hmean_md": harmonic_mean(a), "hmean_1d": harmonic_mean(b), "p_value": p}
    return pd.DataFrame(rows).T.loc[DIM_METHODS]


def table10(
    spark: SparkSession,
    *,
    scale: float = 1.0,
    block_sizes=(4096, 65536, 8 << 20),
    methods=tuple(TABLE10_METHODS),
    datasets=None,
    repeats: int = 1,
) -> pd.DataFrame:
    """Table 10: CR/CT/DT per method under 4K / 64K / 8M blocks, one sweep."""
    specs = [get_spec(n) for n in datasets] if datasets else corpus()
    cells = [(s.name, m, bs) for s in specs for m in methods for bs in block_sizes]
    configs = [F.col("block_bytes") == bs for bs in block_sizes]
    metrics = _metrics_per_config(spark, cells, configs, scale=scale, repeats=repeats)
    frames = []
    for bs, m in zip(block_sizes, metrics):
        agg = pd.DataFrame(
            {
                "avg-CR": m.groupby("method").cr.apply(harmonic_mean),
                "avg-CT (GB/s)": m.groupby("method").ct_gbs.mean(),
                "avg-DT (GB/s)": m.groupby("method").dt_gbs.mean(),
            }
        ).T
        agg = agg[[c for c in methods if c in agg.columns]]
        agg.insert(0, "blocksize", _human(bs))
        frames.append(agg)
    out = pd.concat(frames)
    out.index.name = "metrics"
    return out.reset_index().set_index(["blocksize", "metrics"])


def _human(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes >> 20}M"
    return f"{nbytes >> 10}K"
