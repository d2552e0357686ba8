"""Command-line entry point.

Subcommands: ``weave`` (apply aspects or cascade manifests to a base
assembly), ``simulate`` (replay an event script), ``bench`` (workload
sweep to CSV), ``analyze`` (configuration counts and cost bounds) and
``validate`` (lint aspect sources).

Exit codes: 0 success, 1 usage error, 2 parse or validation error,
3 weave failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import analysis, sim
from .language import AaSyntaxError, Instantiate, parse_aa
from .model import ModelError, assembly_to_json, from_json_dict, load_json, to_dot
from .weaver import Cascade, NameCollision, reweave, union

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_WEAVE = 3


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _read_json(path: str, what: str):
    """The JSON document in ``path``.  Malformed JSON, a number that is
    not finite or too long to convert (all ``ValueError``s) and nesting
    deeper than the decoder's stack allows are an ``InputError`` that names
    the file."""
    text = _read(path, what)
    try:
        return load_json(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_assembly(path: str):
    doc = _read_json(path, "assembly")
    try:
        return from_json_dict(doc)
    except ModelError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_aa(path: str):
    return parse_aa(_read(path, "aspect"), path=path)


def load_cascade_manifest(path: str) -> Cascade:
    """Manifest JSON: {"name", "namespace", "cycles": [["file.aa", ...], ...]}.

    Cycle entries are aspect paths relative to the manifest, or objects
    {"file": ..., "namespace": ...} to pin an aspect's own namespace.
    """
    manifest_path = Path(path)
    manifest = _read_json(path, "cascade manifest")
    if not isinstance(manifest, dict):
        raise InputError(f"{path}: a cascade manifest is a JSON object")
    ranks = manifest.get("cycles", [])
    if not isinstance(ranks, list) or not all(isinstance(rank, list) for rank in ranks):
        raise InputError(f'{path}: "cycles" must be a list of lists of aspect entries')
    name = manifest.get("name", manifest_path.stem)
    cascade_ns = manifest.get("namespace", "")
    if not isinstance(name, str) or not isinstance(cascade_ns, str):
        raise InputError(f'{path}: "name" and "namespace" must be strings')
    cycles = []
    for rank in ranks:
        aas = []
        for entry in rank:
            if isinstance(entry, str):
                file_name, namespace = entry, None
            elif isinstance(entry, dict) and isinstance(entry.get("file"), str):
                file_name, namespace = entry["file"], entry.get("namespace")
            else:
                raise InputError(
                    f'{path}: cycle entry {json.dumps(entry)} is neither a file name nor an object with a string "file"'
                )
            if namespace is not None and not isinstance(namespace, str):
                raise InputError(f"{path}: the namespace of {file_name!r} must be a string, not {json.dumps(namespace)}")
            aa = _load_aa(str(manifest_path.parent / file_name))
            if namespace is not None:
                aa = aa.with_namespace(namespace)
            aas.append(aa)
        cycles.append(tuple(aas))
    return Cascade(name=name, namespace=cascade_ns, cycles=tuple(cycles))


def _gather_cascades(args) -> list[Cascade]:
    cascades = []
    if args.cascade:
        cascades.extend(load_cascade_manifest(p) for p in args.cascade)
    if args.aa:
        aas = tuple(_load_aa(p) for p in args.aa)
        cascades.append(Cascade("mono", "", (aas,)))
    if not cascades:
        raise UsageError("give at least one --aa or --cascade")
    return cascades


def cmd_weave(args) -> int:
    base = _load_assembly(args.base)
    cascades = _gather_cascades(args)
    selection = set(args.select) if args.select else None
    unknown = sorted(selection - {name for c in cascades for name in c.aa_names()}) if selection else []
    if unknown:
        raise InputError(f"--select names unknown aspects: {', '.join(map(repr, unknown))}")
    woven, instructions, reports = reweave(base, base, cascades, selection)
    failed = [r for r in reports if r.failure]
    if failed:
        for r in failed:
            print(f"weave failed in cycle {r.cycle}: {r.failure}", file=sys.stderr)
        return EXIT_WEAVE
    _write(args.out, assembly_to_json(woven) + "\n")
    if args.dot:
        _write(args.dot, to_dot(woven))
    if args.report:
        payload = {"cycles": [r.to_json_dict() for r in reports], "instructions": len(instructions)}
        _write(args.report, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.weave_duration < 0:
        raise InputError(f"--weave-duration must be at least 0, not {args.weave_duration}")
    base = _load_assembly(args.base)
    cascades = _gather_cascades(args)
    try:
        script = sim.parse_script(_read(args.script, "script"))
        trace = sim.run_scenario(base, cascades, script, weave_duration_ms=args.weave_duration)
    except sim.ScriptError as exc:
        raise InputError(f"{args.script}: {exc}") from None
    payload = json.dumps(trace.to_json_dict(), indent=2) + "\n"
    _write(args.trace, payload)
    weaves = sum(1 for r in trace.records if r.triggered)
    print(f"{len(trace.records)} events, {weaves} weaves", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise InputError(f"--reps must be at least 1, not {args.reps}")
    start, stop, step = args.sweep
    rows = sim.run_bench(
        joinpoints=range(start, stop + 1, step),
        p_values=tuple(args.p),
        repetitions=args.reps,
        aa_count=args.aa_count,
        rules_per_aa=args.rules_per_aa,
        seed=args.seed,
    )
    _write(args.csv, sim.bench_rows_to_csv(rows))
    return EXIT_OK


def cmd_analyze(args) -> int:
    if not 0 <= args.p_a <= 1:
        raise InputError(f"--p-a must lie in [0, 1], not {args.p_a}")
    result: dict = {}
    if args.fit:
        rows = list(csv.DictReader(_read(args.fit, "benchmark CSV").splitlines()))
        try:
            a1, a2, residual = analysis.fit_cost_model_from_rows(rows)
        except (KeyError, ValueError) as exc:
            raise InputError(f"{args.fit}: not a benchmark CSV ({exc})") from None
        except analysis.DegenerateFit as exc:
            raise InputError(f"{args.fit}: cannot fit the duration model: {exc}") from None
        print(json.dumps({"a1": a1, "a2": a2, "rms_residual_us": residual}, indent=2))
        return EXIT_OK
    if args.shape:
        shape_doc = _read_json(args.shape, "shape")
        # CascadeShape's checks and the counts' limits are ValueErrors.
        try:
            if not isinstance(shape_doc, dict) or not all(
                isinstance(shape_doc.get(k), list) and all(type(n) is int for n in shape_doc[k]) for k in "MR"
            ):
                raise InputError(f'{args.shape}: a shape is {{"M": [...], "R": [...]}} with lists of integers')
            shape = analysis.CascadeShape(tuple(shape_doc["M"]), tuple(shape_doc["R"]))
            # Both counts are 2**exponent (times 1 + p_a): refuse one too long to print before building it.
            exponent = sum(shape.per_cycle_aas) - sum(shape.per_cycle_producers)
            digits, limit = math.floor(exponent * math.log10(2)) + 1, sys.get_int_max_str_digits()
            if limit and digits > limit:
                raise ValueError(f"2**{exponent} configurations have {digits} digits; at most {limit} print")
            result["multi_configurations"] = analysis.count_cascade_configurations(shape)
            result["mono_configurations"] = analysis.count_mono_configurations(exponent, args.p_a)
        except ValueError as exc:
            raise InputError(f"{args.shape}: {exc}") from None
        result["shape"] = {"M": list(shape.per_cycle_aas), "R": list(shape.per_cycle_producers)}
        print(json.dumps(result, indent=2))
        return EXIT_OK

    combined = union(*_gather_cascades(args))
    shape = analysis.derive_shape(combined)
    groups = analysis.dependency_groups(combined)
    card_app0 = 1
    nb_jpoint = 0
    if args.base:
        base = _load_assembly(args.base)
        card_app0 = len(base.components) + len(base.by_endpoints)
        nb_jpoint = sum(len(c.ports) for c in base.components.values())
    per_cycle_rules = analysis.nb_rules_per_cycle(combined)
    pointcut_sizes = [len(aa.advice_params) for rank in combined.cycles for aa in rank]
    per_cycle = [(n, card_app0) for n in per_cycle_rules]
    result = {
        "aspects": sum(shape.per_cycle_aas),
        "shape": {"M": list(shape.per_cycle_aas), "R": list(shape.per_cycle_producers)},
        "dependency_groups": [sorted(g) for g in groups],
        "multi_configurations": analysis.count_cascade_configurations(shape),
        "mono_configurations": analysis.mono_collapse_count(combined, args.p_a),
        "nb_rules_total": sum(per_cycle_rules),
        "nb_rules_per_cycle": per_cycle_rules,
        "merge_bound_mono": analysis.merge_upper_bound_mono(sum(per_cycle_rules), card_app0),
        "merge_bound_multi": analysis.merge_upper_bound_multi(per_cycle),
        "combinations_mono": analysis.combination_count_mono(nb_jpoint, pointcut_sizes),
        "combinations_multi": analysis.combination_count_multi(nb_jpoint, pointcut_sizes),
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.aa:
        try:
            aa = _load_aa(path)
        except (AaSyntaxError, InputError) as exc:
            print(str(exc), file=sys.stderr)
            status = EXIT_INVALID
            continue
        for rule in aa.rules:
            if isinstance(rule, Instantiate) and not rule.ports:
                print(f"{path}: note: {rule.local_name!r} is instantiated but never linked", file=sys.stderr)
        print(f"{path}: ok ({aa.name}, {len(aa.pointcut)} pointcut rules, {len(aa.rules)} advice rules)")
    return status


def _sweep(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be start:stop:step")
    start, stop, step = (int(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"sweep step must be > 0, not {step}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"sweep stop {stop} is below its start {start}")
    return start, stop, step


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="aaweave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    weave = sub.add_parser("weave", help="weave aspects over a base assembly")
    weave.add_argument("--base", required=True, help="base assembly JSON")
    weave.add_argument("--aa", action="append", help="aspect source (repeatable, mono-cycle)")
    weave.add_argument("--cascade", action="append", help="cascade manifest JSON (repeatable)")
    weave.add_argument("--select", action="append", help="enable only these aspects")
    weave.add_argument("--out", help="write final assembly JSON here (default stdout)")
    weave.add_argument("--dot", help="also write a DOT rendering")
    weave.add_argument("--report", help="also write the weave report JSON")
    weave.set_defaults(fn=cmd_weave)

    simulate = sub.add_parser("simulate", help="replay an event script")
    simulate.add_argument("--base", required=True)
    simulate.add_argument("--aa", action="append")
    simulate.add_argument("--cascade", action="append")
    simulate.add_argument("--script", required=True, help="JSONL event script")
    simulate.add_argument("--trace", help="write the trace JSON here (default stdout)")
    simulate.add_argument("--weave-duration", type=int, default=0, help="logical weave busy window (ms)")
    simulate.set_defaults(fn=cmd_simulate)

    bench = sub.add_parser("bench", help="run the workload sweep")
    bench.add_argument("--sweep", type=_sweep, default=(0, 120, 20), help="joinpoints start:stop:step")
    bench.add_argument("--p", action="append", type=float, default=None, help="conflict probability (repeatable)")
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--aa-count", type=int, default=12)
    bench.add_argument("--rules-per-aa", type=int, default=2)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", help="write CSV here (default stdout)")
    bench.set_defaults(fn=cmd_bench)

    analyze = sub.add_parser("analyze", help="configuration counts and cost bounds")
    analyze.add_argument("--cascade", action="append")
    analyze.add_argument("--aa", action="append")
    analyze.add_argument("--shape", help="shape JSON {\"M\": [...], \"R\": [...]} instead of manifests")
    analyze.add_argument("--base", help="base assembly, for joinpoint and size figures")
    analyze.add_argument("--p-a", type=float, default=0.0, help="duplication probability")
    analyze.add_argument("--fit", help="fit the duration model from a benchmark CSV")
    analyze.set_defaults(fn=cmd_analyze)

    validate = sub.add_parser("validate", help="lint aspect sources")
    validate.add_argument("--aa", action="append", required=True)
    validate.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench" and args.p is None:
            args.p = [0.0, 0.33, 0.5]
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (AaSyntaxError, InputError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except NameCollision as exc:
        print(f"weave failed: {exc}", file=sys.stderr)
        return EXIT_WEAVE


if __name__ == "__main__":
    sys.exit(main())
