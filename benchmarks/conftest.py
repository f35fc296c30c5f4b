"""Shared fixtures for the per-table benchmarks.

Each benchmark builds its table through ``repro.run``. The main 33×14
sweep feeds Tables 4, 5 and 6 (exactly as in the paper), so one
session-wide context runs it once. ``REPRO_SCALE`` shrinks or grows the
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
    return Context(scale=BENCH_SCALE, session=spark)


@pytest.fixture(scope="session")
def swept_ctx(ctx) -> Context:
    """The context with the main sweep (Tables 4/5/6) already run."""
    ctx.sweep()
    return ctx
