"""The benchmark's tracer must keep finding every function it wraps.

``perfbench/tracer.py`` patches functions at the names their callers
imported; a rename in the package would leave a layer untraced and its
metrics silently at zero.  The tracer is loaded by path, read only.
"""
import importlib.util
from dataclasses import replace
from pathlib import Path
from unittest import mock

from aaweave import optree, sim, weaver
from aaweave.merge import merge_group
from aaweave.sim import WorkloadSpec, generate_workload

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def visible_ports(base, cascades, cycles: int) -> int:
    """Ports of the components each (cycle, namespace) of a weave may see,
    summed; a cycle's input is the weave of the cycles before it."""
    ranks = weaver.union(*cascades).resolved()
    total = 0
    for i in range(cycles):
        seen, _ = weaver.weave_cascade(base, [replace(c, cycles=c.cycles[:i]) for c in cascades])
        weaving = {aa.name for aa, _ in ranks[i]}
        for ns in {ns for _, ns in ranks[i]}:
            for c in seen.components.values():
                p = c.provenance
                if p is None or (p.aa_name not in weaving and p.cycle < i and p.namespace in ("", ns)):
                    total += len(c.ports)
    return total


def test_benchmark_tracer_binds_every_patch_point():
    spec = WorkloadSpec(seed=5, joinpoint_count=12, aa_count=4, conflict_probability=0.5, cycles=2)
    base, cascades = generate_workload(spec)
    tracer = load_tracer().Tracer()
    folded = []

    def spy(group):
        folded.append(group)
        return merge_group(group)

    with mock.patch.object(weaver, "merge_group", spy):  # the tracer wraps the spy
        tracer.install()
        try:
            current, reports = weaver.weave_cascade(base, cascades)
            _, _, again = sim.reweave(current, base, cascades, None)
        finally:
            tracer.uninstall()
    assert tracer.missing == []
    assert weaver.merge_group is merge_group  # uninstall restored the names
    reports += again
    assert sum(r.merge_ops for r in reports) > 0
    assert tracer.counts["merge.fold_steps"] == sum(r.merge_ops for r in reports)
    assert tracer.counts["weaver.cycles"] == len(reports)
    # The match counts read what the weaver hands the matcher.
    assert tracer.counts["matching.joinpoints"] > 0
    assert tracer.counts["matching.candidates"] > 0
    # The joinpoint count is the summed ports of the visible components,
    # once for the weave and once for the re-weave.
    assert not any(r.failure for r in reports)
    woven_cycles = len(reports) - len(again)
    assert tracer.counts["matching.joinpoints"] == 2 * visible_ports(base, cascades, woven_cycles)
    # The detect/fold hand-off: every group detection counts is folded,
    # each is one anchor, and lowering turns them into instructions.
    assert tracer.counts["merge.groups"] == len(folded) > 0
    assert tracer.counts["merge.anchors"] >= tracer.counts["merge.groups"]
    assert tracer.counts["merge.lower.instructions"] > 0
    # The factory hand-off: one advice instance per combination.
    assert tracer.counts["matching.instantiate_advice.calls"] == tracer.counts["matching.combinations.count"] > 0


def test_sort_key_counts_the_keys_a_weave_computes():
    # A traced run reads ``sort_key.cache_info()`` before and after its
    # window; the key function keeps no trees, so it reports calls only.
    base, cascades = generate_workload(WorkloadSpec(seed=5, joinpoint_count=12, aa_count=4, conflict_probability=0.5))
    before = optree.sort_key.cache_info()
    weaver.weave_cascade(base, cascades)
    after = optree.sort_key.cache_info()
    assert after.hits == 0 and after.currsize == 0
    assert after.misses > before.misses
