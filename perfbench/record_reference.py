"""Record every workload's per-cell compressed sizes into ``reference.json``.

    python3 perfbench/record_reference.py

The correctness gate compares each run against this file, so it is
recorded once, from the commit that defines the benchmark, and again only
by a change that means to alter some codec's output bytes.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


def main() -> int:
    run.prepare_environment()
    from perfbench.gate import REFERENCE, cell_key
    from perfbench.tracing import Tracer
    from perfbench.workloads import run_pass, workloads

    spark = None
    out = {}
    try:
        run.launch_jvm()
        spark = run.new_session()
        for wl in workloads().values():
            for role, spec in (("main", wl.main), ("companion", wl.companion)):
                res = run_pass(spark, spec, random.Random(0), Tracer("record", False),
                               str(run.OUT / "dbsim"))
                bad = res.cells[~res.cells.ok]
                if len(bad):
                    print(bad.to_string(), file=sys.stderr)
                    return 1
                out[f"{wl.name}/{role}"] = {
                    cell_key(r): int(r.comp_bytes) for r in res.cells.itertuples()
                }
    finally:
        run.shutdown(spark)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, out.values()))} cells to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
