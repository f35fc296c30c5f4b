"""Shared fixtures for the per-table benchmarks.

Each benchmark builds its table through ``repro.run``, on one
session-wide context that declares the sweep-backed tables the suite
builds, so its first sweep runs all their cells as one job: Tables 4, 5
and 6 share the 33×14 cells (exactly as in the paper), and Table 9's md
cells are Table 4's. ``REPRO_SCALE`` shrinks or grows the
corpus, as for ``python -m repro.run``, but defaults to 0.5 here (≈ 6 MB
total, a few minutes for the full suite).

Each benchmark writes the paper-style table it reproduces to
``benchmarks/out/`` so EXPERIMENTS.md can be diffed against fresh runs.
"""
import os
from pathlib import Path

import pytest

from repro.run import Context

BENCH_SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))
OUT_DIR = Path(__file__).parent / "out"
OUT_DIR.mkdir(exist_ok=True)


def write_table(name: str, text: str) -> None:
    (OUT_DIR / f"{name}.txt").write_text(text)


@pytest.fixture(scope="session")
def ctx(spark) -> Context:
    builds = ("table04", "table05", "table06", "table09", "table10")
    return Context(scale=BENCH_SCALE, session=spark, builds=builds)
