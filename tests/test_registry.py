"""The method table must reproduce Table 1 of the paper and name real codecs."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.codecs

from repro.codecs.base import (
    GPU_METHODS,
    METHODS,
    TABLE4_METHODS,
    TABLE10_METHODS,
    Codec,
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


def test_table_rows_load_thirteen_codec_classes():
    """Table 1 lists fifteen methods; the one no table measures is not built
    (DESIGN.md substitution #5), so the table's rows are Table 4's columns.
    ndzip-C and ndzip-G share one class."""
    assert set(METHODS) == set(TABLE4_METHODS) == set(TABLE1)
    classes = {type(load_codec(m)) for m in METHODS}
    assert len(classes) == 13
    assert all(issubclass(c, Codec) for c in classes)


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_metadata_matches_table1(name):
    info = METHODS[name]
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
    assert GPU_METHODS == {m for m, row in TABLE1.items() if row[3] == "GPU"}


def test_scaling_methods_are_the_threaded_cpu_rows():
    """Tables 7/8 time the CPU methods whose Table-1 parallelism includes threads."""
    from repro.run import SCALING_METHODS

    threaded = [m for m in TABLE4_METHODS if TABLE1[m][3] == "CPU" and "threads" in TABLE1[m][4]]
    assert list(SCALING_METHODS) == threaded == ["pFPC", "shf+LZ4", "shf+zstd", "ndzip-C"]


def test_load_codec_returns_fresh_instances():
    a, b = load_codec("Gorilla"), load_codec("Gorilla")
    assert a is not b


def test_methods_name_every_codec_module():
    """Every codec module has a row, and each row's class is a codec defined
    in the module it names."""
    helpers = {"base", "lz77", "huffman"}
    modules = {m.name for m in pkgutil.iter_modules(repro.codecs.__path__)} - helpers
    assert {info.impl.split(":")[0] for info in METHODS.values()} == modules
    for info in METHODS.values():
        module, name = info.impl.split(":")
        cls = getattr(importlib.import_module(f"repro.codecs.{module}"), name)
        assert issubclass(cls, Codec) and cls.__module__ == f"repro.codecs.{module}"


def test_load_codec_imports_only_its_own_module():
    probe = (
        "import sys; from repro.codecs.base import load_codec; load_codec('Gorilla'); "
        "print('repro.codecs.gorilla' in sys.modules, 'repro.codecs.pfpc' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert out.split() == ["True", "False"]


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
