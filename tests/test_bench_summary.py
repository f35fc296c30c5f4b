"""tools/bench_summary.py: medians, IQRs and pair wins of perfbench records."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def _record(
    out: Path, workload: str, seed: int, rel: float, cr: float, wall: float, sha: str = ""
) -> None:
    metrics = {
        "setup_s": {"value": 10.0, "unit": "s", "n": 1},
        "pass_wall_rel": {"value": rel, "unit": "ratio", "n": 20},
        "hmean_cr": {"value": cr, "unit": "ratio", "n": 22},
        "driver_peak_rss_mb": {"value": 180.0, "unit": "MB", "n": 1},
    }
    record = {
        "manifest": {"workload": workload, "seed": seed, "git_sha": sha or out.name},
        "metrics": metrics,
        "raw": {"sweep_wall_s": {"value": wall, "unit": "s", "n": 20}},
    }
    out.mkdir(exist_ok=True)
    (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_summary_of_two_sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(0.20, 0.15), (0.18, 0.16), (0.17, 0.19), (0.19, 0.14)]):
        _record(parent, "dbsim-retrieve", seed, p, 1.5, 2 * p)
        _record(change, "dbsim-retrieve", seed, c, 1.5, 2 * c)
    _record(parent, "dbsim-retrieve", 9, 0.5, 1.5, 1.0)  # unpaired: spread only
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
    wl = json.loads(out.read_text())["workloads"]["dbsim-retrieve"]
    assert wl["paired_seeds"] == [0, 1, 2, 3]
    assert wl["parent"]["seeds"] == [0, 1, 2, 3, 9]
    rel = wl["change"]["metrics"]["pass_wall_rel"]
    assert rel["median"] == pytest.approx(0.155)
    assert rel["q1"] == pytest.approx(0.1475) and rel["q3"] == pytest.approx(0.1675)
    assert rel["iqr"] == pytest.approx(0.02) and rel["unit"] == "ratio"
    assert wl["parent"]["metrics"]["sweep_wall_s"]["median"] == pytest.approx(0.38)
    assert wl["pairs"]["pass_wall_rel"] == {"change_better": 3, "pairs": 4}
    # hmean_cr is higher-is-better and equal on every pair: no wins
    assert wl["pairs"]["hmean_cr"] == {"change_better": 0, "pairs": 4}
    assert wl["parent"]["git_sha"] == "parent"
    assert wl["verdicts"] == dict.fromkeys(
        ["setup_s", "pass_wall_rel", "hmean_cr", "driver_peak_rss_mb"], "held"
    )


_STEADY = [10.0, 10.1, 10.2, 10.3]  # IQR 0.15, under 10% of the median


@pytest.mark.parametrize(
    "parent,change,lower,want",
    [
        (_STEADY, [9.0, 9.2, 9.4, 9.9], True, "better"),
        ([1.0, 1.01], [1.02, 1.03], False, "better"),
        ([10.0, 12.0, 14.0, 16.0], [10.5, 12.5, 13.0, 17.0], True, "unresolved"),
        (_STEADY, [11.5, 11.6, 11.7, 11.8], True, "worse"),
        (_STEADY, [8.9, 9.0, 9.0, 9.1], False, "worse"),
        (_STEADY, [10.0, 10.3, 10.5, 10.6], True, "held"),
    ],
    ids=["better-lower", "better-higher", "unresolved", "worse-lower", "worse-higher", "held"],
)
def test_verdict_against_a_10_percent_bound(parent, change, lower, want):
    assert bench_summary.verdict(parent, change, lower, 0.1) == want


def test_a_side_with_records_of_another_commit_is_refused(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        _record(parent, "sweep-whole", seed, 0.8, 2.0, 0.4)
        _record(change, "sweep-whole", seed, 0.8, 2.0, 0.4)
    _record(change, "sweep-whole", 7, 0.9, 2.0, 0.5, sha="earlier")  # a leftover run
    with pytest.raises(ValueError, match="sweep-whole-seed7-trace0.json"):
        bench_summary.main([str(parent), str(change), "--out", str(tmp_path / "BENCH.json")])
    assert not (tmp_path / "BENCH.json").exists()
