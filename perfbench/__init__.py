"""Benchmark of the FCBench reproduction; run ``python3 perfbench/run.py --help``."""
