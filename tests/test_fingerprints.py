"""The weaver must keep producing the outputs the benchmark recorded.

``perfbench/workloads.py`` checks every op against
``perfbench/fingerprints.json``; a change that alters what the weaver
produces would otherwise show only when the benchmark runs.  This test
replays variant 0 of each generated workload and the CLI run over the
fixtures.  The workloads module is loaded by path, read only.
"""
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_variant_0_and_the_cli_reproduce_the_recorded_fingerprints(tmp_path):
    workloads = load_workloads()
    recorded = json.loads((PERFBENCH / "fingerprints.json").read_text(encoding="utf-8"))
    for name in ("merge-deep", "match-wide"):
        wl = workloads.CascadeWorkload(name)
        assert wl.reference(wl.setup(0)) == recorded[name]["0"], name
    churn = workloads.ChurnWorkload()
    churn.install()
    try:
        assert churn.reference(churn.setup(0)) == recorded["replay-churn"]["0"]
    finally:
        churn.uninstall()
    cli = workloads.CliWorkload(PERFBENCH.parent, tmp_path)
    state = cli.setup(0)
    try:
        assert cli.reference(state) == recorded["cli-fixtures"]["any"]
    finally:
        cli.close(state)
