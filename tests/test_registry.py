"""Registry metadata must reproduce Table 1 of the paper."""
import ast
from pathlib import Path

import numpy as np
import pytest

import repro.codecs

from repro.codecs.base import (
    GPU_METHODS,
    TABLE4_METHODS,
    TABLE10_METHODS,
    _REGISTRY,
    import_codecs,
    load_codec,
)

# (name, year, domain, precision, arch, parallel) rows of Table 1
TABLE1 = {
    "fpzip": (2006, "HPC", "S,D", "CPU", "serial"),
    "pFPC": (2009, "HPC", "D", "CPU", "threads"),
    "shf+LZ4": (2015, "HPC", "S,D", "CPU", "SIMD + threads"),
    "shf+zstd": (2015, "HPC", "S,D", "CPU", "SIMD + threads"),
    "Gorilla": (2015, "Database", "D", "CPU", "serial"),
    "SPDP": (2018, "HPC", "S,D", "CPU", "serial"),
    "ndzip-C": (2021, "HPC", "S,D", "CPU", "SIMD + threads"),
    "BUFF": (2021, "Database", "S,D", "CPU", "serial"),
    "Chimp": (2022, "Database", "S,D", "CPU", "serial"),
    "GFC": (2011, "HPC", "D", "GPU", "SIMT"),
    "MPC": (2015, "HPC", "S,D", "GPU", "SIMT"),
    "nv::LZ4": (2020, "general", "S,D", "GPU", "SIMT"),
    "nv::btcomp": (2020, "general", "S,D", "GPU", "SIMT"),
    "ndzip-G": (2021, "HPC", "S,D", "GPU", "SIMT"),
}


def test_all_fifteen_methods_registered():
    """Table 1 lists fifteen methods; the one no table measures is not built
    (DESIGN.md substitution #5), so the registry is Table 4's columns."""
    import_codecs()
    assert set(_REGISTRY) == set(TABLE4_METHODS) == set(TABLE1)


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_metadata_matches_table1(name):
    info = load_codec(name).info
    year, domain, precision, arch, parallel = TABLE1[name]
    assert info.year == year
    assert info.domain == domain
    assert info.precision == precision
    assert info.arch == arch
    assert info.parallel == parallel


def test_table4_columns_are_the_fourteen_methods():
    assert len(TABLE4_METHODS) == 14


def test_table10_methods_subset():
    assert set(TABLE10_METHODS) <= set(TABLE4_METHODS)
    assert len(TABLE10_METHODS) == 8


def test_gpu_methods_partition():
    assert GPU_METHODS == {m for m in TABLE4_METHODS if load_codec(m).info.arch == "GPU"}


def test_load_codec_returns_fresh_instances():
    a, b = load_codec("Gorilla"), load_codec("Gorilla")
    assert a is not b


def test_codecs_import_no_private_names():
    """Shared codec parts live behind public names, not in another codec's privates."""
    offenders = []
    for path in sorted(Path(repro.codecs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                offenders += [
                    f"{path.name}: {node.module}.{a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []
