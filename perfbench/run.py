"""aaweave benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload merge-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else.  With ``--trace 0`` the run sets up the
workload several times, runs ops back to back for ``--seconds`` with
nothing wrapped around the program, checks every output and prints the
end-to-end metrics.  With ``--trace 1`` it runs the first half of the
window untraced and the second half traced, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the context (sample counts,
noise sentinel, machine).  Full results and spans go to
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("merge-deep", "match-wide", "replay-churn", "cli-fixtures")
SETUPS = 5
REFERENCE_MS = 1.0
REFERENCE_PASSES_PER_SETUP = 5


def load_program():
    """Import aaweave from this checkout's src/, or stop without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import aaweave
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import aaweave from {src}: {exc}")
    if Path(aaweave.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported aaweave from {aaweave.__file__}, not from {src}")
    fixtures = ROOT / "fixtures" / "scenario.cascade.json"
    if not fixtures.is_file():
        raise SystemExit(f"perfbench: missing {fixtures}")


def reference_loop() -> float:
    """One pass of a fixed pure-Python loop, in ms (about 1 ms).

    It builds and hashes small tuples in a dict, as the weaver does, so
    that neighbour load on caches and memory shows in it as it does in
    the weave, not only load on the arithmetic units.  The collector is
    off while it runs, so the size of the program's heap cannot change
    its time, and the table stays small, so that it adds nothing to the
    process's peak memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(3_000):
            table[(i & 511, i & 7)] = (i, i + 1)
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def sentinel_ms() -> float:
    """Noise sentinel: the median of 25 passes of the reference loop."""
    return statistics.median(reference_loop() for _ in range(25))


class Reference:
    """Passes of the reference loop, each stamped with the time it ended.

    On a shared machine the speed of the cores swings by up to two times
    for seconds to minutes, with CPU time equal to wall time, and a weave
    slows with it.  The loop slows in step, so the benchmark runs one pass
    between every two ops, outside their timing, and scales an op's time
    by ``REFERENCE_MS`` over the mean of the passes just before and just
    after it: the op's time on a machine where one pass takes
    ``REFERENCE_MS``.  A slower program still reads slower in proportion;
    a slower machine does not.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.ends: list[float] = []
        self.spent_s = 0.0

    def sample(self, passes: int = 1) -> None:
        """Time ``passes`` passes of the loop and keep their median."""
        t0 = time.perf_counter()
        self.samples.append(statistics.median(reference_loop() for _ in range(passes)))
        self.ends.append(time.perf_counter())
        self.spent_s += self.ends[-1] - t0

    def scale(self, start: float, latency: float) -> float:
        """The scale for an op: from the passes just before and just after it."""
        after = bisect.bisect_right(self.ends, start + latency)
        before = bisect.bisect_right(self.ends, start) - 1
        return 2 * REFERENCE_MS / (self.samples[before] + self.samples[after])


def measure(workload, state, seconds: float) -> dict:
    """Run units back to back; stop before one would end past ``seconds``.

    A pass of the reference loop runs before and after every unit, and
    between the ops of a unit that runs several.
    """
    ops: list[tuple[float, float, int]] = []
    failed = raised = units = 0
    checking = 0.0
    reference = Reference()
    workload.between_ops = reference.sample
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if units and elapsed + elapsed / units > seconds:
                break
            units += 1
            reference.sample()
            try:
                unit_ops, unit_failed, unit_checking = workload.unit(state)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                raised += 1
                continue
            ops += unit_ops
            failed += unit_failed
            checking += unit_checking
    finally:
        workload.between_ops = None
    reference.sample()
    wall = time.perf_counter() - start
    return {
        "latencies": [lat for _, lat, _ in ops],
        "scaled": [lat * reference.scale(t, lat) for t, lat, _ in ops],
        "instructions": [n for _, _, n in ops],
        "attempted": len(ops) + raised,
        "failed": failed + raised,
        "units": units,
        "busy_s": wall - checking - reference.spent_s,
        "reference_ms": statistics.median(reference.samples),
        "reference_samples": len(reference.samples),
    }


def percentile_ms(latencies, q: int) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1e3 if latencies else math.nan
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def mean_scale(window: dict) -> float:
    """The ops' scales, each weighted by its op's time."""
    if not window["latencies"]:
        return math.nan
    return math.fsum(window["scaled"]) / math.fsum(window["latencies"])


def end_to_end(window: dict, setup_s: float) -> dict:
    """The end-to-end metrics, every time at reference speed (see ``Reference``)."""
    scaled = window["scaled"]
    return {
        "setup_s": (setup_s, "s"),
        "weave_ms_p50": (statistics.median(scaled) * 1e3 if scaled else math.nan, "ms"),
        "weave_ms_p90": (percentile_ms(scaled, 90), "ms"),
        "weaves_per_s": (len(scaled) / window["busy_s"] / mean_scale(window), "1/s"),
        "instructions_per_weave": (statistics.fmean(window["instructions"]) if scaled else math.nan, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_times(window: dict) -> dict:
    """The time metrics as the clock read them, before scaling."""
    lat = window["latencies"]
    return {
        "weave_ms_p50": statistics.median(lat) * 1e3 if lat else math.nan,
        "weave_ms_p90": percentile_ms(lat, 90),
        "weaves_per_s": len(lat) / window["busy_s"],
        "reference_ms": window["reference_ms"],
        "reference_samples": window["reference_samples"],
    }


def make_workload(name: str, scratch: Path):
    import workloads

    if name == "replay-churn":
        return workloads.ChurnWorkload()
    if name == "cli-fixtures":
        return workloads.CliWorkload(ROOT, scratch)
    return workloads.CascadeWorkload(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_program()
    import aaweave.optree
    import tracer
    import workloads

    fingerprints = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sentinel = {"reference_ms_before": sentinel_ms(), "loadavg_before": os.getloadavg()}

    workload = make_workload(args.workload, OUT)
    workload.install()
    state = None
    try:
        setups = []
        setup_reference = Reference()
        for _ in range(SETUPS):
            if state is not None:
                workload.close(state)
            setup_reference.sample(REFERENCE_PASSES_PER_SETUP)
            t0 = time.perf_counter()
            state = workload.setup(args.seed)
            setups.append((t0, time.perf_counter() - t0))
        setup_reference.sample(REFERENCE_PASSES_PER_SETUP)
        key = "any" if args.workload == "cli-fixtures" else str(args.seed % workloads.VARIANTS)
        checks = {"reference_matches_fingerprint": workload.expect(state, fingerprints[args.workload][key])}
        gc.collect()

        traced = spans = None
        if args.trace:
            plain = measure(workload, state, args.seconds / 2)
            spans = tracer.Tracer()
            before = aaweave.optree.sort_key.cache_info()
            spans.install()
            try:
                traced = measure(workload, state, args.seconds / 2)
            finally:
                spans.uninstall()
            after = aaweave.optree.sort_key.cache_info()
        else:
            plain = measure(workload, state, args.seconds)
        checks.update(workloads.run_checks(*workload.checked_inputs(state), args.seed))
    finally:
        workload.uninstall()
        if state is not None:
            workload.close(state)
    sentinel.update(reference_ms_after=sentinel_ms(), loadavg_after=os.getloadavg())
    setup_s = statistics.median(t * setup_reference.scale(t0, t) for t0, t in setups)

    windows = [w for w in (plain, traced) if w is not None]
    attempted = sum(w["attempted"] for w in windows) + len(checks)
    failed = sum(w["failed"] for w in windows) + sum(1 for ok in checks.values() if not ok)
    if traced is None:
        metrics = end_to_end(plain, setup_s)
    else:
        layer = spans.layer_metrics(len(traced["latencies"]), (after.hits - before.hits, after.misses - before.misses))
        metrics = {name: (value * mean_scale(traced) if name.endswith("self_ms") else value, _unit(name))
                   for name, value in layer.items()}
        untraced_p50 = statistics.median(plain["scaled"]) if plain["scaled"] else math.nan
        traced_p50 = statistics.median(traced["scaled"]) if traced["scaled"] else math.nan
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")

    lat = windows[-1]["latencies"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": key,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(lat),
        "samples_beyond_p90": len(lat) - math.ceil(0.9 * len(lat)),
        "units": windows[-1]["units"],
        "ops_failed_frac": failed / attempted,
        "checks": checks,
        "setup_times_s": [t for _, t in setups],
        "setup_reference_ms": setup_reference.samples,
        "raw_times": raw_times(windows[-1]),
        "sentinel": sentinel,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    if spans is not None:
        info.update(missing_patch_points=spans.missing, spans=len(spans.spans),
                    untraced_samples=len(plain["latencies"]))
        spans.write_spans(OUT / f"spans-{stem}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n",
                                      encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("ratio", "yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
