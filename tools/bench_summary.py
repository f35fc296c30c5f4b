"""Summarise perfbench run records of a parent and a change into one JSON.

    python3 tools/bench_summary.py PARENT_OUT CHANGE_OUT --out BENCH_14.json

``PARENT_OUT`` and ``CHANGE_OUT`` are the ``.perfbench_out/`` directories
of two checkouts, each holding the ``<workload>-seed<N>-trace0.json``
records that ``perfbench/run.py --trace 0`` wrote. For every workload, the
output holds the seeds run on both sides and, per side, the median, the
quartiles and the IQR of each end-to-end metric that ``BENCHMARK.json``
declares and of the raw ``sweep_wall_s``. Runs of one seed on both sides
form a pair; for each metric the output counts the pairs in which the
change was better, by the metric's direction in ``BENCHMARK.json``, and
gives each end-to-end metric a verdict against its ``bound`` there
(:func:`verdict`). Each
side also records its git SHA and the digest of its ``src/`` tree, as
the run manifests give them (a checkout without ``.git`` has no SHA). A
directory whose records disagree on those two, such as one still holding
an earlier commit's runs, is refused with the odd records named.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(out_dir: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} of the untraced run records in ``out_dir``.
    Raises ``ValueError`` naming the records of all but the commonest
    (git SHA, src digest) pair if the records hold more than one."""
    runs: dict[str, dict[int, dict]] = {}
    sources: dict[tuple, list[str]] = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        info = record["manifest"]
        runs.setdefault(info["workload"], {})[info["seed"]] = record
        sources.setdefault((info.get("git_sha"), info.get("src_sha256")), []).append(path.name)
    if len(sources) > 1:
        *odd, _ = sorted(sources.values(), key=len)
        names = ", ".join(name for group in odd for name in group)
        raise ValueError(f"{out_dir}: records of more than one git_sha/src_sha256; odd: {names}")
    return runs


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of ``values``."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def _value(record: dict, name: str) -> float:
    figures = record["raw"] if name in record["raw"] else record["metrics"]
    return figures[name]["value"]


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """``better`` when every change run beats every parent run; else
    ``unresolved`` when the parent's IQR exceeds ``bound`` times its median;
    else ``worse`` when the change's median is worse than the parent's by
    more than that; else ``held``."""
    sign = 1 if lower else -1
    if max(sign * v for v in change) < min(sign * v for v in parent):
        return "better"
    base = spread(parent)
    limit = bound * abs(base["median"])
    if base["iqr"] > limit:
        return "unresolved"
    if sign * (statistics.median(change) - base["median"]) > limit:
        return "worse"
    return "held"


def summarise(parent: dict[int, dict], change: dict[int, dict], declared: dict[str, dict]) -> dict:
    """One workload's summary; ``declared`` maps each end-to-end metric's
    name to its ``BENCHMARK.json`` entry."""
    better = {name: m["better"] for name, m in declared.items()}
    names = [*better, "sweep_wall_s"]
    sides = {}
    for side, runs in (("parent", parent), ("change", change)):
        any_run = next(iter(runs.values()))
        sides[side] = {
            "git_sha": any_run["manifest"].get("git_sha"),
            "src_sha256": any_run["manifest"].get("src_sha256"),
            "seeds": sorted(runs),
            "metrics": {
                name: {
                    "unit": (any_run["raw"] | any_run["metrics"])[name]["unit"],
                    **spread([_value(r, name) for r in runs.values()]),
                }
                for name in names
            },
        }
    paired = sorted(set(parent) & set(change))
    wins = {}
    for name in names:
        lower = better.get(name, "lower") == "lower"
        won = 0
        for seed in paired:
            p, c = _value(parent[seed], name), _value(change[seed], name)
            won += (c < p) if lower else (c > p)
        wins[name] = {"change_better": won, "pairs": len(paired)}
    verdicts = {
        name: verdict(
            [_value(r, name) for r in parent.values()],
            [_value(r, name) for r in change.values()],
            m["better"] == "lower",
            m["bound"],
        )
        for name, m in declared.items()
    }
    return {"paired_seeds": paired, **sides, "pairs": wins, "verdicts": verdicts}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in parent and w["name"] in change]
    out = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "workloads": {w: summarise(parent[w], change[w], declared) for w in workloads},
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
