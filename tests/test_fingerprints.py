"""The weaver must keep producing the outputs the benchmark recorded.

``perfbench/workloads.py`` checks every op against
``perfbench/fingerprints.json``; a change that alters what the weaver
produces would otherwise show only when the benchmark runs.  This test
replays variant 0 of each generated workload and the CLI run over the
fixtures, pins how much of variant 0's replay the session memo reuses,
and checks that a re-weave of unchanged inputs hands on every deployed
object.  The workloads module is loaded by path, read only.
"""
import importlib.util
import json
from pathlib import Path

from aaweave.sim import run_scenario
from aaweave.weaver import Memo, reweave, weave_cascade

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


def test_variant_0_replay_reuses_what_it_reused_before():
    # The summed (instances, folds, lowerings) reuse counts of the
    # initial weave and every re-weave of ``replay-churn``'s variant 0.  A
    # change to what the session memo keeps or keys on must restate them.
    workloads = load_workloads()
    base, cascades = workloads.generated_inputs("replay-churn", 0)
    trace = run_scenario(base, cascades, workloads.churn_script(base, cascades, 0))
    reports = [*trace.initial_reports, *(r for record in trace.records for r in record.reports)]
    totals = tuple(sum(getattr(r, f"{step}_reused") for r in reports) for step in ("instances", "folds", "lowerings"))
    assert totals == (5416, 2583, 2234)


def test_a_reweave_of_unchanged_inputs_hands_on_every_deployed_object():
    # ``replay-churn``'s inputs woven in a session memo, then rewoven with
    # the same environment and selection: every component and binding of
    # the target is the deployed object itself, plain bindings and stamps
    # included, so the diff is empty and ``diff`` compares no field.
    workloads = load_workloads()
    base, cascades = workloads.generated_inputs("replay-churn", 0)
    memo = Memo()
    deployed, reports = weave_cascade(base, cascades, memo)
    assert not any(r.failure for r in reports)
    target, instructions, reports = reweave(deployed, base, cascades, None, memo)
    assert not any(r.failure for r in reports) and instructions == []
    assert (len(target.components), len(target.by_endpoints)) == (421, 1860)
    assert target.components.keys() == deployed.components.keys()
    assert all(c is deployed.components[cid] for cid, c in target.components.items())
    assert target.by_endpoints.keys() == deployed.by_endpoints.keys()
    assert all(b is deployed.by_endpoints[key] for key, b in target.by_endpoints.items())
