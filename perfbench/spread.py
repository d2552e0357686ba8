"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads merge-deep,replay-churn --seeds 1-10
    python3 perfbench/spread.py --workloads all --seeds 4,4 --trace 1

Runs are sequential, one process each, with the run length from
BENCHMARK.json unless ``--seconds`` is given.  For every workload and
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  When a seed is given more than
once, it also reports whether every count repeated exactly across runs
of that seed.  Raw results go to ``.perfbench_out/spread-*.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    names = run.WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    run.OUT.mkdir(exist_ok=True)
    for name in names:
        results = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            results.append({"seed": seed, "info": info, "result": result,
                            "elapsed_s": time.perf_counter() - t0})
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} samples={info['samples']} "
                  f"sentinel={info['sentinel']['reference_ms_before']:.1f}/"
                  f"{info['sentinel']['reference_ms_after']:.1f}ms "
                  f"reference={info['raw_times']['reference_ms']:.2f}ms "
                  f"run={time.perf_counter() - t0:.1f}s", flush=True)
        out = run.OUT / f"spread-{name}-trace{args.trace}-{int(time.time())}.json"
        out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        for metric in results[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {name:13s} {metric:40s} median {med:12.4f}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f"  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:7.3f}"
                if bounds.get(metric) is not None:
                    line += f"  bound {bounds[metric]}"
            if units.get(metric) == "count" and len(set(args.seeds)) < len(args.seeds):
                by_seed: dict[int, set] = {}
                for r, v in zip(results, values):
                    by_seed.setdefault(r["seed"], set()).add(v)
                line += "  repeats" if all(len(v) == 1 for v in by_seed.values()) else "  DIFFERS"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
