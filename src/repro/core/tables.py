"""Builders that turn harness results into the paper's evaluation tables.

One full sweep (33 datasets × 14 methods) feeds Tables 4, 5 and 6, as in
the paper; Tables 7/8 (scaling), 9 (dimension info) and 10 (block sizes)
run their own parameterized sweeps. Each builder returns pandas frames
shaped like the printed tables, which ``repro.run`` formats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.codecs.base import TABLE4_METHODS, TABLE10_METHODS
from repro.core import stats
from repro.core.harness import per_dataset_metrics, run_benchmark
from repro.data.corpus import DOMAINS, corpus

#: Table 9's methods: the ones whose predictors take dimension information.
DIM_METHODS = ["GFC", "MPC", "fpzip", "ndzip-C", "ndzip-G"]

#: Table 11's methods (paper omits BUFF and the nvCOMP binaries there).
TABLE11_METHODS = [
    "pFPC", "SPDP", "fpzip", "shf+LZ4", "shf+zstd", "ndzip-C",
    "Gorilla", "Chimp", "GFC", "MPC", "ndzip-G",
]


def metrics_pdf(results: DataFrame) -> pd.DataFrame:
    """Per-(dataset, method) CR/CT/DT/wall metrics as pandas."""
    return per_dataset_metrics(results).toPandas()


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
        hm = sub.apply(lambda c: stats_hmean(c), axis=0)
        hm.name = f"{dom} Domain-avg"
        out_rows.append(hm.to_frame().T)
    overall = pivot.apply(lambda c: stats_hmean(c), axis=0)
    overall.name = "Overall-avg"
    out_rows.append(overall.to_frame().T)
    return pd.concat(out_rows)


def stats_hmean(col: pd.Series) -> float:
    from repro.core.metrics import harmonic_mean

    return harmonic_mean(col.dropna().tolist())


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
    res = stats.friedman_test(pivot.to_numpy(), higher_is_better=True)
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


def table9(spark: SparkSession, *, scale: float = 1.0, repeats: int = 1) -> pd.DataFrame:
    """Table 9: dimension information's influence on CR (md vs 1d) + p-values."""
    multi = [s.name for s in corpus() if len(s.extent) > 1]
    rows = {}
    per_method_crs: dict[tuple[str, str], list[float]] = {}
    for label, use_dims in (("md", True), ("1d", False)):
        res = run_benchmark(
            spark, DIM_METHODS, scale=scale, datasets=multi,
            use_dims=use_dims, repeats=repeats,
        )
        m = metrics_pdf(res)
        for meth in DIM_METHODS:
            crs = m[m.method == meth].cr.tolist()
            per_method_crs[(meth, label)] = crs
            rows.setdefault(meth, {})[f"hmean_{label}"] = stats_hmean(pd.Series(crs))
    for meth in DIM_METHODS:
        _, p = stats.mann_whitney_u(
            per_method_crs[(meth, "md")], per_method_crs[(meth, "1d")]
        )
        rows[meth]["p_value"] = p
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
    """Table 10: CR/CT/DT per method under 4K / 64K / 8M block sizes."""
    frames = []
    for bs in block_sizes:
        res = run_benchmark(
            spark, methods, scale=scale, datasets=datasets,
            block_bytes=bs, repeats=repeats,
        )
        m = metrics_pdf(res)
        agg = pd.DataFrame(
            {
                "avg-CR": m.groupby("method").cr.apply(stats_hmean),
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
