"""The four benchmark workloads: input builders, timed units and output checks.

Every workload hands the program only inputs generated from the seed.
The seed picks one of ``VARIANTS`` recorded input variants (``seed %
VARIANTS``) for the generator (except for ``replay-churn``, see
``GENERATOR_SEED``) and the churn script, so every output can be
checked against a fingerprint recorded in ``fingerprints.json``; the full
seed also shuffles the aspects inside each cycle, which a weave must not
notice.

A unit is the smallest stretch of work the timing loop runs: one op for
``merge-deep``, ``match-wide`` and ``cli-fixtures``, one whole replay of
the churn script (forty-eight ops) for ``replay-churn``.  A unit returns
(start time, latency in s, instructions emitted) for each op it ran, how
many of those ops failed and how long the benchmark spent checking
outputs.
"""
from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from aaweave import analysis, cli, sim, weaver
from aaweave.model import assembly_from_json, canonical_equal, diff
from aaweave.sim import EnvEvent, WorkloadSpec, generate_workload

VARIANTS = 16

# Generator settings per workload; README.md gives the reason for each.
SPECS = {
    "merge-deep": dict(joinpoint_count=120, conflict_probability=0.5, aa_count=12, rules_per_aa=2),
    "match-wide": dict(joinpoint_count=120, conflict_probability=0.0, aa_count=120),
    "replay-churn": dict(joinpoint_count=120, conflict_probability=0.33, aa_count=12, cycles=3),
}


# ---------------------------------------------------------------------------
# Fingerprints


def digest(assembly) -> str:
    """Digest of an assembly that forgives renaming of woven components.

    Base components are labelled by their full content, woven ones by
    their id stem and content; two rounds of neighbourhood refinement over
    the bindings then fold the wiring into every label.  Renaming woven
    ids, the only freedom ``canonical_equal`` allows, leaves it unchanged.
    """
    label = {}
    for cid, c in assembly.components.items():
        ident = cid if c.provenance is None else cid.rstrip("0123456789")
        ports = sorted((p.direction, p.name) for p in c.ports)
        label[cid] = repr((ident, c.type_name, repr(c.provenance), sorted(c.properties.items()),
                           sorted(c.metadata.items()), ports))
    edges = {cid: [] for cid in label}
    for b in assembly.bindings:
        s, t, prov = b.source, b.target, repr(b.provenance)
        edges[s.component_id].append(("out", s.port_name, t.port_name, t.component_id, prov))
        edges[t.component_id].append(("in", t.port_name, s.port_name, s.component_id, prov))
    for _ in range(2):
        label = {
            cid: hashlib.sha1(
                (lab + repr(sorted((d, p, q, label[peer], prov) for d, p, q, peer, prov in edges[cid]))).encode()
            ).hexdigest()
            for cid, lab in label.items()
        }
    lines = sorted(label.values())
    lines += sorted(
        repr((label[b.source.component_id], b.source.port_name, label[b.target.component_id],
              b.target.port_name, repr(b.provenance)))
        for b in assembly.bindings
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def weave_summary(base, result, reports) -> dict:
    """What a one-shot weave from ``base`` must reproduce."""
    return {
        "components": len(result.components),
        "bindings": len(result.bindings),
        "fold_steps": sum(r.merge_ops for r in reports),
        "conflict_groups": sum(r.conflict_groups for r in reports),
        "instructions": len(diff(base, result)),
        "failures": sum(1 for r in reports if r.failure),
        "digest": digest(result),
    }


def batch_summary(target, instructions, reports) -> list:
    """What one re-weave must reproduce; cheap enough to take on every op."""
    return [
        len(instructions),
        len(target.components),
        len(target.bindings),
        sum(r.merge_ops for r in reports),
        sum(r.conflict_groups for r in reports),
        sum(1 for r in reports if r.failure),
    ]


def shuffle_cycles(cascades, rng: random.Random):
    return [
        replace(c, cycles=tuple(tuple(rng.sample(rank, len(rank))) for rank in c.cycles))
        for c in cascades
    ]


def run_checks(base, cascades, seed: int) -> dict[str, bool]:
    """Once-per-run checks: permutation independence and the paper's bounds."""
    result, reports = weaver.weave_cascade(base, cascades)
    shuffled = shuffle_cycles(cascades, random.Random(f"permute:{seed}"))
    again, _ = weaver.weave_cascade(base, shuffled)
    aas = [aa for c in cascades for rank in c.cycles for aa in rank]
    nb_jpoint = max(sum(len(c.ports) for c in a.components.values()) for a in (base, result))
    combos = sum(n for r in reports for _, _, n in r.applied)
    card_app0 = len(base.components) + len(base.bindings)
    return {
        "permutation_independent": canonical_equal(result, again),
        "combinations_within_bound": combos
        <= analysis.combination_count_mono(nb_jpoint, [len(aa.pointcut) for aa in aas]),
        "fold_steps_within_bound": sum(r.merge_ops for r in reports)
        <= analysis.merge_upper_bound_mono(analysis.nb_rules(aas), card_app0),
    }


class Workload:
    """Defaults shared by the workloads below."""

    # Set by the timing loop while it runs; a unit that runs several ops
    # calls it between them, outside their timing.
    between_ops = None

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def checked_inputs(self, state):
        """The (base, cascades) pair the once-per-run checks weave."""
        return state["base"], state["cascades"]

    def expect(self, state, fingerprint: dict) -> bool:
        """Check the warm-up output against the recorded fingerprint.

        Every op must reproduce the warm-up output, so when that is wrong
        every op counts as failed.
        """
        summary = self.reference(state)
        state["instructions"] = summary["instructions"]
        state["reference_ok"] = summary == fingerprint
        return state["reference_ok"]

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# Generated one-shot weaves: merge-deep, match-wide


# replay-churn re-weaves one generated environment under every seed: from
# one generated environment to the next, the work of a whole replay changed
# by up to a fifth (12% more instructions on variant 4 than on variant 12),
# more than the time bounds allow between runs.  Its seed still picks the
# churn script and the aspect order in every cycle.
GENERATOR_SEED = {"replay-churn": 0}


def generated_inputs(name: str, seed: int):
    generator_seed = GENERATOR_SEED.get(name, seed % VARIANTS)
    base, cascades = generate_workload(WorkloadSpec(seed=generator_seed, **SPECS[name]))
    return base, shuffle_cycles(cascades, random.Random(seed))


class CascadeWorkload(Workload):
    """One op is one ``weave_cascade`` from the aspect-free base."""

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int) -> dict:
        base, cascades = generated_inputs(self.name, seed)
        result, reports = weaver.weave_cascade(base, cascades)  # warm-up op
        return {"base": base, "cascades": cascades, "result": result, "reports": reports}

    def reference(self, state) -> dict:
        return weave_summary(state["base"], state["result"], state["reports"])

    def unit(self, state) -> tuple[list, int, float]:
        t0 = time.perf_counter()
        result, reports = weaver.weave_cascade(state["base"], state["cascades"])
        t1 = time.perf_counter()
        # The input never changes, so the output must equal the warm-up's,
        # whose digest was checked against the recorded fingerprint.
        ok = state["reference_ok"] and not any(r.failure for r in reports) and result == state["result"]
        return [(t0, t1 - t0, state["instructions"])], 0 if ok else 1, time.perf_counter() - t1


# ---------------------------------------------------------------------------
# replay-churn


def churn_script(base, cascades, variant: int) -> list[EnvEvent]:
    """Forty-eight events, one batch each: every aspect is unselected and
    selected again, and one device of every class disappears and reappears.

    Each item goes off in one batch and comes back in the next (a blink),
    so every blink starts with all aspects selected and all devices
    present, and the order of the blinks matters little.  (A device that
    came back has lost its hub binding: an appear event brings none.)  A
    device's position within its class decides how many later fresh names
    its absence shifts, and with them the size of the diff; the positions
    therefore step through each class evenly from a seeded offset, which
    keeps the work per replay nearly the same for every variant.
    """
    rng = random.Random(f"churn:{variant}")
    aas = sorted((aa for c in cascades for rank in c.cycles for aa in rank), key=lambda a: a.name)
    devices: dict[str, list[str]] = {}
    for cid, c in sorted(base.components.items()):
        devices.setdefault(c.metadata.get("type"), []).append(cid)
    offset = rng.randrange(len(base.components))
    chosen = []
    for k, aa in enumerate(aas):
        pool = devices[aa.pointcut[0].filters[0].value]
        chosen.append(pool[(offset + k) % len(pool)])

    items = [("aa", aa.name) for aa in aas] + [("device", d) for d in chosen]
    rng.shuffle(items)
    events = []
    for k, (kind, what) in enumerate(items):
        if kind == "aa":
            events += [EnvEvent(20 * k, "unselect", aa_name=what), EnvEvent(20 * k + 10, "select", aa_name=what)]
        else:
            events += [EnvEvent(20 * k, "disappear", component_id=what),
                       EnvEvent(20 * k + 10, "appear", component=base.components[what])]
    return events


class ChurnWorkload(Workload):
    """One op is one re-weave after a batch of events; a unit replays the
    whole script through ``run_scenario``.

    Ops are timed by a wrapper on ``aaweave.sim.reweave``, the name
    ``run_scenario`` calls, which also takes each batch's summary.
    """

    name = "replay-churn"

    def __init__(self):
        self._ops: list = []
        self._inner = None

    def _timed_reweave(self, *args, **kwargs):
        t0 = time.perf_counter()
        target, instructions, reports = self._inner(*args, **kwargs)
        self._ops.append((t0, time.perf_counter() - t0, batch_summary(target, instructions, reports)))
        if self.between_ops is not None:
            self.between_ops()
        return target, instructions, reports

    def install(self) -> None:
        self._inner = sim.reweave
        sim.reweave = self._timed_reweave

    def uninstall(self) -> None:
        sim.reweave = self._inner

    def setup(self, seed: int) -> dict:
        base, cascades = generated_inputs(self.name, seed)
        script = churn_script(base, cascades, seed % VARIANTS)
        # Warm-up: the initial weave and the first batch.
        sim.run_scenario(base, cascades, [e for e in script if e.at == script[0].at])
        return {"base": base, "cascades": cascades, "script": script}

    def replay(self, state):
        self._ops.clear()
        trace = sim.run_scenario(state["base"], state["cascades"], state["script"])
        return trace, list(self._ops)

    def reference(self, state) -> dict:
        trace, ops = self.replay(state)
        return {"batches": [summary for _, _, summary in ops], "digest": digest(trace.final_assembly)}

    def expect(self, state, fingerprint: dict) -> bool:
        """Replay the whole script once, untimed, and check it.

        Besides checking the output before timing starts, this fills the
        caches every later replay hits, so all timed replays do the same
        work however many of them fit in the window.
        """
        state["expected"] = fingerprint
        return self.reference(state) == fingerprint

    def unit(self, state) -> tuple[list, int, float]:
        t0 = time.perf_counter()
        trace, ops = self.replay(state)
        t1 = time.perf_counter()
        if not ops:  # no re-weave reached the op timer: one failed op
            return [(t0, t1 - t0, 0)], 1, 0.0
        want = state["expected"]
        if len(ops) != len(want["batches"]) or digest(trace.final_assembly) != want["digest"]:
            failed = len(ops)
        else:
            failed = sum(1 for (_, _, got), expected in zip(ops, want["batches"]) if got != expected)
        return [(start, lat, summary[0]) for start, lat, summary in ops], failed, time.perf_counter() - t1


# ---------------------------------------------------------------------------
# cli-fixtures


class CliWorkload(Workload):
    """One op is one in-process ``aaweave weave`` over the hospital fixtures
    and the scenario cascade, writing the assembly, its DOT and the report.
    """

    name = "cli-fixtures"

    def __init__(self, root: Path, scratch: Path):
        self.fixtures = root / "fixtures"
        self.scratch = scratch

    def setup(self, seed: int) -> dict:
        # The manifest is the generated input: every cycle shuffled by the seed.
        source = self.fixtures / "scenario.cascade.json"
        manifest = json.loads(source.read_text(encoding="utf-8"))
        rng = random.Random(seed)
        manifest["cycles"] = [
            [str(source.parent / entry) for entry in rng.sample(rank, len(rank))]
            for rank in manifest["cycles"]
        ]
        d = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        (d / "scenario.cascade.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["weave", "--base", str(self.fixtures / "hospital_base.json"),
                "--cascade", str(d / "scenario.cascade.json"), "--out", str(d / "woven.json"),
                "--dot", str(d / "woven.dot"), "--report", str(d / "report.json")]
        state = {"dir": d, "argv": argv, "code": cli.main(argv)}  # warm-up op
        state["out"], state["dot"], state["report"] = self._outputs(d)
        return state

    @staticmethod
    def _outputs(d: Path):
        """Read the three outputs of an op, then remove them.

        Every op thus writes new files, as a run into a fresh output path
        does.  Overwriting them instead makes ext4 push each truncated and
        rewritten file to disk on close, and the disk's latency, not the
        program, then sets the op's tail.
        """
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        for cycle in report["cycles"]:
            del cycle["durations_us"]  # wall clock: the only field allowed to vary
        out, dot = (d / "woven.json").read_text(encoding="utf-8"), (d / "woven.dot").read_text(encoding="utf-8")
        for name in ("report.json", "woven.json", "woven.dot"):
            (d / name).unlink()
        return out, dot, report

    def checked_inputs(self, state):
        base = assembly_from_json((self.fixtures / "hospital_base.json").read_text(encoding="utf-8"))
        return base, [cli.load_cascade_manifest(str(state["dir"] / "scenario.cascade.json"))]

    def reference(self, state) -> dict:
        woven = assembly_from_json(state["out"])
        cycles = state["report"]["cycles"]
        return {
            "exit_code": state["code"],
            "components": len(woven.components),
            "bindings": len(woven.bindings),
            "fold_steps": sum(c["merge_ops"] for c in cycles),
            "conflict_groups": sum(c["conflict_groups"] for c in cycles),
            "instructions": state["report"]["instructions"],
            "failures": sum(1 for c in cycles if c["failure"]),
            "digest": digest(woven),
        }

    def unit(self, state) -> tuple[list, int, float]:
        t0 = time.perf_counter()
        code = cli.main(state["argv"])
        t1 = time.perf_counter()
        out, dot, report = self._outputs(state["dir"])
        ok = (state["reference_ok"] and code == 0 and out == state["out"] and dot == state["dot"]
              and report == state["report"])
        return [(t0, t1 - t0, report["instructions"])], 0 if ok else 1, time.perf_counter() - t1

    def close(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)
