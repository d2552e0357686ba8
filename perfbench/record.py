"""Record the outputs the benchmark checks every op against.

    python3 perfbench/record.py

Writes perfbench/fingerprints.json from the program in src/: for every
input variant of the generated workloads, the woven sizes, fold steps,
conflict groups, instructions per op and a renaming-invariant digest of
the result (per batch and at the end of the replay for replay-churn),
and the same for the CLI run over the fixtures.  Re-record only for a
change that is meant to alter what the weaver produces.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_program()
    import workloads

    variants = range(workloads.VARIANTS)
    out = {}
    for name in ("merge-deep", "match-wide"):
        wl = workloads.CascadeWorkload(name)
        out[name] = {str(v): wl.reference(wl.setup(v)) for v in variants}
    churn = workloads.ChurnWorkload()
    churn.install()
    try:
        out["replay-churn"] = {str(v): churn.reference(churn.setup(v)) for v in variants}
    finally:
        churn.uninstall()
    run.OUT.mkdir(exist_ok=True)
    wl = workloads.CliWorkload(run.ROOT, run.OUT)
    state = wl.setup(0)
    try:
        out["cli-fixtures"] = {"any": wl.reference(state)}
    finally:
        wl.close(state)
    text = json.dumps(out, indent=1, sort_keys=True)
    (run.HERE / "fingerprints.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
