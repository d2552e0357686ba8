import inspect
import json
import shutil
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aaweave import sim
from aaweave.cli import main
from aaweave.language import parse_aa
from aaweave.model import REQUIRED, PortRef, assembly_from_json
from aaweave.sim import EnvEvent, run_scenario
from aaweave.weaver import Cascade, Memo, weave_cascade


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weave_hospital(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "woven.json"
    dot = tmp_path / "woven.dot"
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "weave",
        "--base", str(fixtures_dir / "hospital_base.json"),
        "--aa", str(fixtures_dir / "aa" / "identity_management.aa"),
        "--aa", str(fixtures_dir / "aa" / "brightness_light.aa"),
        "--out", str(out),
        "--dot", str(dot),
        "--report", str(report),
    )
    assert code == 0
    woven = assembly_from_json(out.read_text())
    for cid in ("Decision1", "threshold1", "if1"):
        assert cid in woven.components
    assert '"if1"' in dot.read_text()
    doc = json.loads(report.read_text())
    assert doc["cycles"][0]["conflict_groups"] == 1


def test_weave_writes_stdout_by_default(fixtures_dir, capsys):
    code, out, _ = run(
        capsys,
        "weave",
        "--base", str(fixtures_dir / "hospital_base.json"),
        "--cascade", str(fixtures_dir / "scenario.cascade.json"),
    )
    assert code == 0
    assert "Decision1" in out


def test_missing_base_is_usage_error(capsys):
    code, _, err = run(capsys, "weave", "--aa", "whatever.aa")
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_syntax_error_names_position(tmp_path, fixtures_dir, capsys):
    bad = tmp_path / "bad.aa"
    bad.write_text("Advice:\nschema x():\n  a -> b\n")
    code, _, err = run(
        capsys, "weave", "--base", str(fixtures_dir / "hospital_base.json"), "--aa", str(bad)
    )
    assert code == 2
    assert f"{bad}:3:" in err


def test_weave_failure_exit_code(tmp_path, fixtures_dir, capsys):
    left = "Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema left(s):\n  s -> (delegate(nop))\n"
    right = "Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema right(s):\n  s -> (delegate(call))\n"
    stray = "Pointcut:\n  s := /brightness1.^NewValue/\nAdvice:\nschema stray(s):\n  s -> (call)\n"
    dangling = (
        "Pointcut:\n  s := /brightness1.^NewValue/\n  t := /light1.SetState/\nAdvice:\n"
        "schema dangling(s, t):\n  s -> (t.Missing)\n"
    )
    cases = {
        "delegate": [left, right],
        "no original interaction": [stray],
        "declares no provided port": [dangling],
    }
    for message, sources in cases.items():
        argv = ["weave", "--base", str(fixtures_dir / "hospital_base.json")]
        for k, source in enumerate(sources):
            path = tmp_path / f"aspect{k}.aa"
            path.write_text(source)
            argv += ["--aa", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "weave failed in cycle 0" in err
        assert message in err
        assert "Traceback" not in err


def test_weave_accepts_an_aspect_pinned_to_its_namespace_twice(tmp_path, fixtures_dir, capsys):
    decision = str(fixtures_dir / "aa" / "decision.aa")
    inherited = {"name": "a", "namespace": "x", "cycles": [[decision]]}
    pinned = {"name": "b", "cycles": [[{"file": decision, "namespace": "x"}]]}
    argv = ["weave", "--base", str(fixtures_dir / "hospital_base.json")]
    for name, manifest in (("a", inherited), ("b", pinned)):
        path = tmp_path / f"{name}.cascade.json"
        path.write_text(json.dumps(manifest))
        argv += ["--cascade", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    woven = json.loads(out)
    assert "Decision1" in {c["id"] for c in woven["components"]}
    code, out, _ = run(capsys, "analyze", *argv[3:])
    assert code == 0
    assert json.loads(out)["aspects"] == 1


def test_simulate_rejects_seed(fixtures_dir, capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--base", str(fixtures_dir / "empty_base.json"),
        "--cascade", str(fixtures_dir / "scenario.cascade.json"),
        "--script", str(fixtures_dir / "hospital_script.jsonl"),
        "--seed", "1",
    )
    assert code == 1
    assert "--seed" in err


def test_analyze_scenario_counts(fixtures_dir, capsys):
    code, out, _ = run(capsys, "analyze", "--cascade", str(fixtures_dir / "scenario.cascade.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["multi_configurations"] == 32
    assert doc["mono_configurations"] == 4
    assert doc["shape"] == {"M": [1, 2, 3], "R": [1, 0, 0]}


def test_analyze_union_of_manifests(fixtures_dir, capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--cascade", str(fixtures_dir / "assistance.cascade.json"),
        "--cascade", str(fixtures_dir / "energy.cascade.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["multi_configurations"] == 32
    assert doc["mono_configurations"] == 4


def test_analyze_shape_file(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text('{"M": [1, 2, 3], "R": [1, 0, 0]}')
    code, out, _ = run(capsys, "analyze", "--shape", str(shape))
    assert code == 0
    assert json.loads(out)["multi_configurations"] == 32


def test_validate_fixture_corpus(fixtures_dir, capsys):
    paths = sorted((fixtures_dir / "aa").glob("*.aa"))
    argv = ["validate"]
    for p in paths:
        argv += ["--aa", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.count(": ok") == len(paths)
    # the decision module's spare Average instantiation is noted, not fatal
    assert "Average" in err


def test_validate_rejects_bad_source(tmp_path, capsys):
    bad = tmp_path / "bad.aa"
    bad.write_text("Pointcut:\n")
    assert run(capsys, "validate", "--aa", str(bad))[0] == 2
    # Names and numbers are ASCII: a non-ASCII letter or digit is an
    # unexpected character at its position, not a crash.
    for ch in ("é", "²", "٣"):
        bad.write_text(f"Advice:\nschema x():\n  y : 'T' (a = {ch});\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--aa", str(bad))
        assert code == 2, ch
        assert f"{bad}:3:16: unexpected character {ch!r}" in err


def test_an_out_of_range_number_names_its_path_and_line(tmp_path, capsys):
    # A float that overflows and an int with more digits than Python
    # converts, as a local's property and as a filter value.
    bad = tmp_path / "big.aa"
    for literal_text in (f"1{'0' * 400}.0", "7" * 5000):
        for source, where in (
            (f"Advice:\nschema x():\n  y : 'T' (a = {literal_text});\n", "3:16"),
            (f"Pointcut:\n  v := /x(@k={literal_text}).p/\nAdvice:\nschema x(v):\n  v -> (nop)\n", "2:8"),
        ):
            bad.write_text(source)
            code, _, err = run(capsys, "validate", "--aa", str(bad))
            assert code == 2
            assert f"{bad}:{where}: number {literal_text[:12]}... ({len(literal_text)} characters) is out of range" in err


def test_an_input_that_is_not_utf8_names_its_path(tmp_path, fixtures_dir, capsys):
    raw = tmp_path / "raw"
    raw.write_bytes(b"\xff\xfe")
    base = str(fixtures_dir / "hospital_base.json")
    cascade = str(fixtures_dir / "scenario.cascade.json")
    for message, argv in [
        ("cannot read aspect", ["validate", "--aa", str(raw)]),
        ("cannot read assembly", ["weave", "--base", str(raw), "--cascade", cascade]),
        ("cannot read aspect", ["weave", "--base", base, "--aa", str(raw)]),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert f"{message} {str(raw)!r}: 'utf-8' codec can't decode byte 0xff" in err, argv


def test_simulate_hospital_script(tmp_path, fixtures_dir, capsys):
    trace_path = tmp_path / "trace.json"
    code, _, err = run(
        capsys,
        "simulate",
        "--base", str(fixtures_dir / "empty_base.json"),
        "--cascade", str(fixtures_dir / "scenario.cascade.json"),
        "--script", str(fixtures_dir / "hospital_script.jsonl"),
        "--trace", str(trace_path),
    )
    assert code == 0
    doc = json.loads(trace_path.read_text())
    assert len(doc["records"]) == 6
    assert sum(1 for r in doc["records"] if r["triggered"]) == 2
    assert "light1" not in {c["id"] for c in doc["final_assembly"]["components"]}


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys,
        "bench",
        "--sweep", "0:20:10",
        "--p", "0.33",
        "--reps", "1",
        "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("joinpoints,p_i,rep,match_us")
    assert len(lines) == 4


def test_bench_asks_run_bench_for_its_own_defaults_and_the_options_given(capsys):
    signature = inspect.signature(sim.run_bench)
    asked = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        asked.append(bound.arguments)
        return []

    flags = ["--sweep", "0:10:5", "--p", "0.5", "--p", "0", "--reps", "2", "--aa-count", "3", "--rules-per-aa", "1"]
    with mock.patch.object(sim, "run_bench", recording):
        assert run(capsys, "bench")[0] == 0
        assert run(capsys, "bench", *flags, "--seed", "7")[0] == 0
    defaults, options = asked
    assert defaults == {name: p.default for name, p in signature.parameters.items()}
    assert options == {
        "joinpoints": range(0, 11, 5), "p_values": [0.5, 0.0], "repetitions": 2, "aa_count": 3, "rules_per_aa": 1, "seed": 7
    }


def test_simulate_bad_script_is_invalid(tmp_path, fixtures_dir, capsys):
    script = tmp_path / "script.jsonl"
    for line in ('{"at": 0, "kind": "disappear", "id": "ghost"}', '{"at": 0, "kind": "appear", "component": {"id": 5}}'):
        script.write_text(line + "\n")
        code, _, err = run(
            capsys,
            "simulate",
            "--base", str(fixtures_dir / "empty_base.json"),
            "--cascade", str(fixtures_dir / "scenario.cascade.json"),
            "--script", str(script),
        )
        assert code == 2
        assert "Traceback" not in err


def test_analyze_fit_from_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--sweep", "10:60:25", "--p", "0.33", "--reps", "2", "--csv", str(csv_path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", "--fit", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"a1", "a2", "rms_residual_us"}


def test_analyze_fit_rejects_a_degenerate_csv(tmp_path, capsys):
    # A --p 0 sweep folds nothing, so its merge_ops column is constant.
    swept = tmp_path / "p0.csv"
    code, _, _ = run(capsys, "bench", "--sweep", "10:60:25", "--p", "0", "--reps", "1", "--csv", str(swept))
    assert code == 0
    header = "merge_ops,merge_us\n"
    cases = {
        "header only": header,
        "one row": header + "3,40\n",
        "constant merge_ops": header + "3,40\n3,45\n",
        "p=0 sweep": swept.read_text(),
        "NaN": header + "1,nan\n2,5\n",
        "infinity": header + "1,inf\n2,5\n",
    }
    path = tmp_path / "fit.csv"
    for case, text in cases.items():
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--fit", str(path))
        assert code == 2, case
        assert out == ""
        assert f"{path}: cannot fit the duration model" in err, case
        assert "Traceback" not in err


def test_weave_rejects_non_string_names_in_the_base(tmp_path, fixtures_dir, capsys):
    light = {"id": "light1", "type": "light", "ports": [{"name": "SetState", "direction": "provided"}]}
    switch = {"id": "switch", "type": "switch", "ports": [{"name": "out", "direction": "required"}]}
    link = {"source": {"component": "switch", "port": "out"}, "target": {"component": "light1", "port": "SetState"}}
    woven = {"kind": "woven", "aa": "a"}
    cases = [
        ("component 0 id", {"components": [{**light, "id": 5}]}),
        ("component 0 type", {"components": [{**light, "type": 7}]}),
        ("component 0 port 0 name", {"components": [{**light, "ports": [{"name": 1, "direction": "provided"}]}]}),
        ("component 0 port 0 direction", {"components": [{**light, "ports": [{"name": "SetState", "direction": "up"}]}]}),
        (
            "binding 0 target component",
            {"components": [light, switch], "bindings": [{**link, "target": {"component": 5, "port": "SetState"}}]},
        ),
        (
            "binding 0 source port",
            {"components": [light, switch], "bindings": [{**link, "source": {"component": "switch", "port": 2}}]},
        ),
        ("component 0 provenance aa", {"components": [{**light, "provenance": {**woven, "aa": 5}}]}),
        ("component 0 provenance aa", {"components": [{**light, "provenance": {"kind": "woven"}}]}),
        ("component 0 provenance kind", {"components": [{**light, "provenance": {**woven, "kind": "mystery"}}]}),
        ("component 0 provenance namespace", {"components": [{**light, "provenance": {**woven, "namespace": ["n"]}}]}),
        *(
            ("component 0 provenance cycle", {"components": [{**light, "provenance": {**woven, "cycle": cycle}}]})
            for cycle in (1.9, True, "7")
        ),
        (
            "binding 0 provenance cycle",
            {"components": [light, switch], "bindings": [{**link, "provenance": {**woven, "cycle": None}}]},
        ),
    ]
    base = tmp_path / "base.json"
    for what, doc in cases:
        base.write_text(json.dumps(doc))
        code, out, err = run(capsys, "weave", "--base", str(base), "--aa", str(fixtures_dir / "aa" / "decision.aa"))
        assert code == 2, what
        assert out == ""
        assert f"{base}: {what}" in err
        assert "Traceback" not in err


def test_weave_rejects_malformed_cascade_manifests(tmp_path, fixtures_dir, capsys):
    decision = str(fixtures_dir / "aa" / "decision.aa")
    cases = {
        "cycles 5": ({"cycles": [[5]]}, "cycle entry 5"),
        "empty entry": ({"cycles": [[{}]]}, "cycle entry {}"),
        "file not a string": ({"cycles": [[{"file": ["a.aa"]}]]}, 'object with a string "file"'),
        "cycles not a list": ({"cycles": 5}, '"cycles" must be a list of lists'),
        "cycle not a list": ({"cycles": [decision]}, '"cycles" must be a list of lists'),
        "entry namespace": ({"cycles": [[{"file": decision, "namespace": 5}]]}, "must be a string, not 5"),
        "cascade namespace": ({"namespace": ["x"], "cycles": [[decision]]}, '"namespace" must be strings'),
        "not an object": ([[decision]], "a cascade manifest is a JSON object"),
    }
    manifest = tmp_path / "m.cascade.json"
    for case, (doc, message) in cases.items():
        manifest.write_text(json.dumps(doc))
        argv = ["--base", str(fixtures_dir / "hospital_base.json"), "--cascade", str(manifest)]
        for command in ("weave", "analyze"):
            code, out, err = run(capsys, command, *argv)
            assert code == 2, (case, command)
            assert out == ""
            assert message in err, case
            assert "Traceback" not in err


def test_analyze_rejects_malformed_shapes(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    for doc in ("{}", "[1,2]", '{"M":[1,2],"R":"ab"}'):
        shape.write_text(doc)
        code, out, err = run(capsys, "analyze", "--shape", str(shape))
        assert code == 2, doc
        assert out == ""
        assert f'{shape}: a shape is {{"M": [...], "R": [...]}}' in err
        assert "Traceback" not in err


def test_analyze_refuses_a_shape_count_too_long_to_print(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    # The largest exponent whose count prints, and the next one.
    top = (10 ** sys.get_int_max_str_digits()).bit_length() - 1
    shape.write_text(f'{{"M": [{top}], "R": [0]}}')
    code, out, _ = run(capsys, "analyze", "--shape", str(shape))
    assert code == 0
    assert json.loads(out)["multi_configurations"] == 2**top
    for m in (top + 1, 10**8):
        shape.write_text(f'{{"M": [{m}, 3], "R": [0, 3]}}')
        code, out, err = run(capsys, "analyze", "--shape", str(shape))
        assert code == 2
        assert out == ""
        assert err.startswith(f"{shape}: 2**{m} configurations have ")
        assert "Traceback" not in err


_LAMP = {"id": "lamp", "ports": [{"name": "on", "direction": "provided"}]}
_ON = {"component": "lamp", "port": "on"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"components": [{"type": "t"}]}, 'component 0: missing "id"'),
        ({"components": [_LAMP, {"id": "x", "ports": [{"name": "p"}]}]}, 'component 1 port 0: missing "direction"'),
        ({"components": 5}, '"components" must be a list, not 5'),
        ({"components": None}, '"components" must be a list, not None'),
        ({"components": [_LAMP], "bindings": 5}, '"bindings" must be a list, not 5'),
        ({"components": ["lamp"]}, "component 0 must be an object, not 'lamp'"),
        ({"components": [_LAMP], "bindings": [{"source": "lamp.on", "target": _ON}]},
         "binding 0 source must be an object, not 'lamp.on'"),
        ({"components": [_LAMP], "bindings": [{"source": _ON}]}, 'binding 0: missing "target"'),
        ({"components": [_LAMP], "bindings": [{"source": {"port": "on"}, "target": _ON}]},
         'binding 0 source: missing "component"'),
        ([_LAMP], "an assembly must be an object, not list"),
    ],
    ids=[
        "no id", "no port direction", "components a number", "components null", "bindings a number",
        "component a string", "source a string", "no target", "no source component", "a list",
    ],
)
def test_the_base_reader_names_the_entry_and_the_field(tmp_path, fixtures_dir, capsys, doc, message):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    code, out, err = run(capsys, "weave", "--base", str(base), "--aa", str(fixtures_dir / "aa" / "decision.aa"))
    assert code == 2
    assert out == ""
    assert err == f"{base}: {message}\n"


def test_analyze_counts_a_shape_past_float_range(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text('{"M": [2000], "R": [0]}')
    code, out, _ = run(capsys, "analyze", "--shape", str(shape))
    assert code == 0
    doc = json.loads(out)
    assert doc["multi_configurations"] == doc["mono_configurations"] == 2**2000
    code, out, err = run(capsys, "analyze", "--shape", str(shape), "--p-a", "0.5")
    assert code == 2
    assert out == ""
    assert f"{shape}: 2**2000 * (1 + 0.5) configurations are too many to count" in err
    assert "Traceback" not in err


def test_simulate_names_the_line_of_a_malformed_event(tmp_path, fixtures_dir, capsys):
    good = '{"at": 0, "kind": "unselect", "aa": "IdentityManagement"}'
    cases = {
        "[1,2]": "an event is a JSON object, not [1,2]",
        '{"at": 1, "kind": "appear", "component": 5}': '"component" must be an object, not 5',
        '{"at": "x", "kind": "select", "aa": "IdentityManagement"}': '"at" must be an integer, not "x"',
        '{"at": 1.9, "kind": "select", "aa": "IdentityManagement"}': '"at" must be an integer, not 1.9',
        '{"at": true, "kind": "select", "aa": "IdentityManagement"}': '"at" must be an integer, not true',
        '{"at": "2", "kind": "select", "aa": "IdentityManagement"}': '"at" must be an integer, not "2"',
        '{"at": 1, "kind": "select", "aa": [1]}': '"aa" must be a string, not [1]',
        '{"at": 1, "kind": "disappear"}': "missing key 'id'",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "ports": ["a"]}}': "component port 0 must be an object, not 'a'",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "ports": "a"}}': "component ports must be a list, not 'a'",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "properties": 5}}': "component properties must be an object, not 5",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "metadata": [1]}}': "component metadata must be an object, not [1]",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "provenance": 5}}': "component provenance must be an object, not 5",
    }
    script = tmp_path / "script.jsonl"
    for line, message in cases.items():
        script.write_text(f"{good}\n\n{line}\n")
        code, out, err = run(
            capsys,
            "simulate",
            "--base", str(fixtures_dir / "empty_base.json"),
            "--cascade", str(fixtures_dir / "scenario.cascade.json"),
            "--script", str(script),
        )
        assert code == 2, line
        assert out == ""
        assert f"script line 3: {message}" in err, line
        assert "Traceback" not in err


def test_weave_rejects_unknown_selected_aspects(fixtures_dir, capsys):
    argv = ["weave", "--base", str(fixtures_dir / "hospital_base.json"), "--cascade", str(fixtures_dir / "scenario.cascade.json")]
    code, out, err = run(capsys, *argv, "--select", "dec", "--select", "nope", "--select", "gone")
    assert code == 2
    assert out == ""
    assert "unknown aspects: 'gone', 'nope'" in err
    code, out, _ = run(capsys, *argv, "--select", "dec")
    assert code == 0
    assert "Decision1" in out


def test_bench_and_simulate_reject_out_of_range_counts(fixtures_dir, capsys):
    simulate = [
        "simulate", "--base", str(fixtures_dir / "empty_base.json"),
        "--cascade", str(fixtures_dir / "scenario.cascade.json"),
        "--script", str(fixtures_dir / "hospital_script.jsonl"),
    ]
    cases = [
        ("--reps must be at least 1, not 0", ["bench", "--sweep", "0:0:1", "--p", "0", "--reps", "0"]),
        ("--reps must be at least 1, not -2", ["bench", "--sweep", "0:0:1", "--p", "0", "--reps", "-2"]),
        ("--weave-duration must be at least 0, not -5", [*simulate, "--weave-duration", "-5"]),
    ]
    for message, argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert message in err, argv
        assert "Traceback" not in err


def test_bench_names_the_fault_of_a_sweep(capsys):
    cases = [
        ("5:1:1", "sweep stop 1 is below its start 5"),
        ("0:10:0", "sweep step must be > 0, not 0"),
        ("0:10:-2", "sweep step must be > 0, not -2"),
        ("5:1:0", "sweep step must be > 0, not 0"),
    ]
    for sweep, message in cases:
        code, out, err = run(capsys, "bench", "--sweep", sweep, "--p", "0", "--reps", "1")
        assert code == 1, sweep  # a usage error
        assert out == ""
        assert message in err, sweep
        assert "Traceback" not in err
    code, out, _ = run(capsys, "bench", "--sweep", "5:5:1", "--p", "0", "--reps", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("joinpoints,")


def test_every_file_argument_rejects_a_directory(tmp_path, fixtures_dir, capsys):
    base = str(fixtures_dir / "hospital_base.json")
    cascade = str(fixtures_dir / "scenario.cascade.json")
    simulate = ["simulate", "--base", str(fixtures_dir / "empty_base.json"), "--cascade", cascade]
    folder = str(tmp_path)
    cases = [
        ("cannot read assembly", ["weave", "--base", folder, "--cascade", cascade]),
        ("cannot read aspect", ["weave", "--base", base, "--aa", folder]),
        ("cannot read cascade manifest", ["weave", "--base", base, "--cascade", folder]),
        ("cannot read script", [*simulate, "--script", folder]),
        ("cannot read shape", ["analyze", "--shape", folder]),
        ("cannot read benchmark CSV", ["analyze", "--fit", folder]),
        *(("cannot write", ["weave", "--base", base, "--cascade", cascade, flag, folder]) for flag in ("--out", "--dot", "--report")),
        ("cannot write", [*simulate, "--script", str(fixtures_dir / "hospital_script.jsonl"), "--trace", folder]),
        ("cannot write", ["bench", "--sweep", "0:0:1", "--p", "0", "--reps", "1", "--csv", folder]),
    ]
    for message, argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert f"{message} {folder!r}" in err, argv


def test_analyze_names_the_shape_or_flag_it_rejects(tmp_path, fixtures_dir, capsys):
    shape = tmp_path / "shape.json"
    for doc, message in [
        ('{"M": [1], "R": [2]}', "producer count 2 out of range for 1 aspects"),
        ('{"M": [1, 2], "R": [0]}', "per-cycle lists differ in length"),
    ]:
        shape.write_text(doc)
        code, out, err = run(capsys, "analyze", "--shape", str(shape))
        assert code == 2, doc
        assert out == ""
        assert f"{shape}: {message}" in err, doc
    shape.write_text('{"M": [1, 2, 3], "R": [1, 0, 0]}')
    cascade = str(fixtures_dir / "scenario.cascade.json")
    for inputs in (["--shape", str(shape)], ["--cascade", cascade]):
        for p_a in ("2", "-0.5", "nan"):
            code, out, err = run(capsys, "analyze", *inputs, "--p-a", p_a)
            assert code == 2, (inputs, p_a)
            assert out == ""
            assert f"--p-a must lie in [0, 1], not {float(p_a)}" in err, (inputs, p_a)


def test_simulate_names_the_script_and_event_of_a_replay_error(tmp_path, fixtures_dir, capsys):
    appear = '{"at": 0, "kind": "appear", "component": {"id": "x"}}'
    cases = {
        (appear, appear): "event 2 (appear at 0): component 'x' already present",
        ("# devices", '{"at": 3, "kind": "disappear", "id": "nosuch"}'):
            "event 1 (disappear at 3): cannot remove unknown component 'nosuch'",
        (appear, '{"at": 4, "kind": "select", "aa": "nope"}'): "event 2 (select at 4): unknown aspect 'nope'",
        ('{"at": 5, "kind": "select", "aa": "dec"}', '{"at": 3, "kind": "unselect", "aa": "dec"}'):
            "event 2 (unselect at 3): script timestamps must be non-decreasing",
    }
    script = tmp_path / "script.jsonl"
    for lines, message in cases.items():
        script.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys,
            "simulate",
            "--base", str(fixtures_dir / "empty_base.json"),
            "--cascade", str(fixtures_dir / "scenario.cascade.json"),
            "--script", str(script),
        )
        assert code == 2, lines
        assert out == ""
        assert f"{script}: {message}" in err, lines


# Values of every JSON type; a mutation swaps a value for one of another type.
_JSON_VALUES = (None, True, 7, 1.5, "x", [], {})


def _mutated(doc, data):
    """``doc`` with one mutation drawn by ``data``: drop a key, change a
    value's type, duplicate a list entry or delete one.  The mutated
    object or list is found by descending from the root, stopping at each
    level with even odds, so the outer structure is hit as often as the
    leaves."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        inner = [k for k in keys if isinstance(node[k], (dict, list)) and node[k]]
        if not inner or not data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(inner))]
    key = data.draw(st.sampled_from(keys))
    kinds = ["drop", "type"] if isinstance(node, dict) else ["drop", "duplicate", "type"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "type":
        node[key] = data.draw(st.sampled_from([v for v in _JSON_VALUES if type(v) is not type(node[key])]))
    elif kind == "drop":
        del node[key]
    else:
        node.insert(data.draw(st.integers(0, len(node))), node[key])
    return doc


@pytest.mark.parametrize("target", ["base", "script", "manifest", "shape"])
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    # Each example rewrites its one input file and reads out what it captured.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_malformed_json_inputs_exit_cleanly_and_are_named(target, tmp_path, fixtures_dir, capsys, data):
    hospital, empty = fixtures_dir / "hospital_base.json", fixtures_dir / "empty_base.json"
    cascade = fixtures_dir / "scenario.cascade.json"
    if target == "base":
        path = tmp_path / "base.json"
        path.write_text(json.dumps(_mutated(json.loads(hospital.read_text()), data)))
        argv = ["weave", "--base", str(path), "--cascade", str(cascade)]
    elif target == "script":
        path = tmp_path / "script.jsonl"
        lines = (fixtures_dir / "hospital_script.jsonl").read_text().splitlines()
        events = _mutated([json.loads(line) for line in lines], data)
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        argv = ["simulate", "--base", str(empty), "--cascade", str(cascade), "--script", str(path)]
    elif target == "manifest":
        path = tmp_path / "manifest.json"
        manifest = json.loads(cascade.read_text())
        manifest["cycles"] = [[str(fixtures_dir / entry) for entry in rank] for rank in manifest["cycles"]]
        path.write_text(json.dumps(_mutated(manifest, data)))
        argv = ["weave", "--base", str(hospital), "--cascade", str(path)]
    else:
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(_mutated({"M": [1, 2, 3], "R": [1, 0, 0]}, data)))
        argv = ["analyze", "--shape", str(path)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 2, 3), err
    if code == 2:
        assert str(path) in err, err


# Characters a mutation inserts into aspect text: quotes, brackets, the
# pattern and port signs, a non-ASCII letter, digit and superscript digit,
# and some plain ASCII.
_INSERTED = "'\"{}()[]/!^é٣²;:.|->= a1\n"


def _mutated_text(text, data):
    """``text`` truncated, or with one character deleted, duplicated or
    inserted, as drawn by ``data``."""
    k = data.draw(st.integers(0, len(text) - 1))
    kind = data.draw(st.sampled_from(["truncate", "delete", "duplicate", "insert"]))
    if kind == "truncate":
        return text[:k]
    if kind == "delete":
        return text[:k] + text[k + 1:]
    if kind == "duplicate":
        return text[: k + 1] + text[k:]
    return text[:k] + data.draw(st.sampled_from(_INSERTED)) + text[k:]


@pytest.mark.parametrize("command", ["validate", "weave", "simulate"])
@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    # Each example mutates one file of its copy of the fixtures and restores it.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_aspect_text_and_truncated_files_exit_cleanly_and_are_named(
    command, tmp_path, fixtures_dir, capsys, data
):
    inputs = tmp_path / "fixtures"
    if not inputs.exists():
        shutil.copytree(fixtures_dir, inputs)
    manifest, script = inputs / "scenario.cascade.json", inputs / "hospital_script.jsonl"
    base = inputs / ("hospital_base.json" if command == "weave" else "empty_base.json")
    if command == "validate":
        files = sorted((inputs / "aa").glob("*.aa"))
    else:
        cycles = json.loads(manifest.read_text())["cycles"]
        files = [*(inputs / entry for rank in cycles for entry in rank), base, manifest]
        files += [script] if command == "simulate" else []
    path = data.draw(st.sampled_from(files))
    original = path.read_text(encoding="utf-8")
    if path.suffix == ".aa":
        path.write_text(_mutated_text(original, data), encoding="utf-8")
    else:
        path.write_text(original[: data.draw(st.integers(0, len(original) - 1))], encoding="utf-8")
    argv = {
        "validate": ["--aa", str(path)],
        "weave": ["--base", str(base), "--cascade", str(manifest)],
        "simulate": ["--base", str(base), "--cascade", str(manifest), "--script", str(script)],
    }[command]
    try:
        code, _, err = run(capsys, command, *argv)
    finally:
        path.write_text(original, encoding="utf-8")
    assert code in (0, 2, 3), err
    if code == 2:
        assert str(path) in err, err


def _deep_ifs(depth):
    body = "d.In"
    for _ in range(depth):
        body = f"if (d.C) {{{body}}} else {{nop}}"
    return f"Advice:\nschema deep():\n  d : 'T';\n  d.^Out -> ({body})\n"


_DEEP_JSON = "[" * 200_000
_LONG_INT = "7" * 5000
_DEEP_PARENS = "Advice:\nschema deep():\n  d : 'T';\n  d.^Out -> (" + "(" * 5000 + "d.In" + ")" * 5000 + ")\n"


@pytest.mark.parametrize(
    "target, text",
    [
        ("base", _DEEP_JSON),
        ("manifest", _DEEP_JSON),
        ("shape", _DEEP_JSON),
        ("script", _DEEP_JSON),
        ("manifest", f'{{"cycles": [], "n": {_LONG_INT}}}'),
        ("script", f'{{"at": {_LONG_INT}, "kind": "disappear", "component_id": "x"}}\n'),
        ("validate", _deep_ifs(450)),
        ("validate", _DEEP_PARENS),
        ("weave", _deep_ifs(450)),
        ("weave", _DEEP_PARENS),
        ("validate", None),
    ],
    ids=[
        "deep-base", "deep-manifest", "deep-shape", "deep-script", "long-int-manifest", "long-int-script",
        "deep-ifs-validate", "deep-parens-validate", "deep-ifs-weave", "deep-parens-weave", "unreadable-validate",
    ],
)
def test_deep_nesting_long_integers_and_unreadable_files_exit_2_and_are_named(
    target, text, tmp_path, fixtures_dir, capsys
):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    hospital, empty = fixtures_dir / "hospital_base.json", fixtures_dir / "empty_base.json"
    cascade, decision = fixtures_dir / "scenario.cascade.json", fixtures_dir / "aa" / "decision.aa"
    argv = {
        "base": ["weave", "--base", path, "--cascade", cascade],
        "manifest": ["weave", "--base", hospital, "--cascade", path],
        "shape": ["analyze", "--shape", path],
        "script": ["simulate", "--base", empty, "--cascade", cascade, "--script", path],
        "validate": ["validate", "--aa", path, "--aa", decision],
        "weave": ["weave", "--base", hospital, "--aa", path],
    }[target]
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2, err
    assert str(path) in err, err
    if target == "script":
        assert f"{path}: script line 1: " in err, err
    if target == "validate":
        assert f"{decision}: ok" in out
    if text is not None and text.startswith("Advice:"):
        assert "nested too deeply" in err, err
    if text is not None and _LONG_INT in text:
        assert f"number {_LONG_INT[:12]}... (5000 characters) is out of range" in err, err


@pytest.mark.parametrize(
    "target,literal,message",
    [
        ("base", "1e400", "number 1e400 is out of range"),
        ("base", "-1e400", "number -1e400 is out of range"),
        ("base", "NaN", "NaN is not a JSON number"),
        ("manifest", "Infinity", "Infinity is not a JSON number"),
        ("manifest", "1e400", "number 1e400 is out of range"),
        ("script", "-Infinity", "-Infinity is not a JSON number"),
        ("script", "1e400", "number 1e400 is out of range"),
    ],
)
def test_non_finite_numbers_exit_2_and_are_named(target, literal, message, tmp_path, fixtures_dir, capsys):
    # Python's json reads these as inf or nan, which the weave would write
    # back as ``Infinity`` or ``NaN``: no JSON reader takes that output.
    path = tmp_path / "input"
    hospital, empty = fixtures_dir / "hospital_base.json", fixtures_dir / "empty_base.json"
    cascade = fixtures_dir / "scenario.cascade.json"
    if target == "base":
        text = hospital.read_text().replace('"properties": {}', f'"properties": {{"x": {literal}}}', 1)
        assert literal in text
        argv = ["weave", "--base", path, "--cascade", cascade]
    elif target == "manifest":
        manifest = json.loads(cascade.read_text())
        manifest["cycles"] = [[str(fixtures_dir / entry) for entry in rank] for rank in manifest["cycles"]]
        text = json.dumps(manifest)[:-1] + f', "weight": {literal}}}'
        argv = ["weave", "--base", hospital, "--cascade", path]
    else:
        text = f'{{"at": 0, "kind": "disappear", "component_id": "x", "weight": {literal}}}\n'
        argv = ["simulate", "--base", empty, "--cascade", cascade, "--script", path]
    path.write_text(text)
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2, err
    assert f"{path}: " in err and message in err, err
    if target == "script":
        assert f"{path}: script line 1: " in err, err
    assert out == ""


def test_json_floats_in_exponent_form_still_read(tmp_path, fixtures_dir, capsys):
    base = json.loads((fixtures_dir / "hospital_base.json").read_text())
    first = base["components"][0]
    first["properties"]["x"] = 1000.0
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base).replace("1000.0", "1e3", 1))
    code, out, err = run(capsys, "weave", "--base", str(path), "--cascade", str(fixtures_dir / "scenario.cascade.json"))
    assert code == 0, err
    woven = {c["id"]: c for c in json.loads(out)["components"]}
    assert woven[first["id"]]["properties"]["x"] == 1000.0


# ---------------------------------------------------------------------------
# folds too deep for the stack

_DEEP_BASE = {
    "components": [
        {"id": "s", "type": "T", "ports": [{"name": "out", "direction": "required"}]},
        {"id": "t", "type": "T", "ports": [{"name": p, "direction": "provided"} for p in ("in", "CA", "CB")]},
    ],
    "bindings": [{"source": {"component": "s", "port": "out"}, "target": {"component": "t", "port": "in"}}],
}


def _deep_aspect(cond, depth):
    """Aspect ``deepCA`` or ``deepCB``: ``s.^out`` rewired through
    ``depth`` nested ``if (t.<cond>)``s, each with a ``nop`` branch.  Two
    aspects on different conditions fold into a tree as deep as both."""
    body = "t.in"
    for _ in range(depth):
        body = f"if (t.{cond}) {{{body}}} else {{nop}}"
    return f"Pointcut:\n  s := /s.^out/\n  t := /t.in/\nAdvice:\nschema deep{cond}(s, t):\n  s -> ({body})\n"


def _weave_deep(tmp_path, capsys, *depths):
    """``weave`` of one aspect per depth, on ``t.CA`` then ``t.CB``, over
    the base ``s.^out -> t.in``; returns the exit code, stderr and whether
    ``--out`` was written."""
    base, out = tmp_path / "base.json", tmp_path / "woven.json"
    base.write_text(json.dumps(_DEEP_BASE))
    out.unlink(missing_ok=True)
    argv = ["weave", "--base", str(base), "--out", str(out)]
    for cond, depth in zip(("CA", "CB"), depths):
        aa = tmp_path / f"deep{cond}.aa"
        aa.write_text(_deep_aspect(cond, depth))
        argv += ["--aa", str(aa)]
    code, _, err = run(capsys, *argv)
    return code, err, out.exists()


def test_a_fold_too_deep_fails_its_cycle_and_stores_no_lowering(tmp_path, capsys):
    # Each aspect weaves alone; together they fold into a tree too deep to
    # lower.  250 sits between the pair's threshold and the parser's.
    assert _weave_deep(tmp_path, capsys, 250)[0] == 0
    assert _weave_deep(tmp_path, capsys, 0, 250)[0] == 0
    code, err, written = _weave_deep(tmp_path, capsys, 250, 250)
    assert code == 3 and not written, err
    assert "weave failed in cycle 0: the merged tree at s.^out is nested too deeply (aspects: deepCA, deepCB)" in err
    memo = Memo()
    aas = tuple(parse_aa(_deep_aspect(cond, 250)) for cond in ("CA", "CB"))
    base = assembly_from_json(json.dumps(_DEEP_BASE))
    result, (report,) = weave_cascade(base, [Cascade("c", cycles=(aas,))], memo)
    assert result is base and "s.^out" in report.failure and report.lowerings_reused == 0
    assert not any(key[1] == PortRef("s", "out", REQUIRED) for key in memo.lowerings)


def test_no_depth_that_parses_crashes_a_weave(tmp_path, capsys):
    # Bisect for the deepest single aspect ``weave`` parses; every depth
    # tried on the way, that one included, exits 0 or 3.  The limit itself
    # depends on the Python version and the stack, so none is asserted.
    parses, fails = 0, 2000
    while fails - parses > 1:
        depth = (parses + fails) // 2
        code, err, _ = _weave_deep(tmp_path, capsys, depth)
        assert code in (0, 2, 3), err
        if code == 2:
            assert "nested too deeply" in err, err
            fails = depth
        else:
            parses = depth
    assert parses > 0


@settings(max_examples=25, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shares=st.lists(st.integers(0, 150) | st.integers(250, 280) | st.integers(400, 450), min_size=2, max_size=2))
def test_pairs_of_deep_aspects_weave_or_fail_cleanly(tmp_path, capsys, shares):
    # Depths in thousandths of the recursion limit, which Hypothesis raises
    # while a test runs: shallow, deep enough that a pair fails, and too
    # deep to parse, each far from where the stack sets those limits on
    # Python 3.11.
    depths = [share * sys.getrecursionlimit() // 1000 for share in shares]
    code, err, _ = _weave_deep(tmp_path, capsys, *depths)
    assert code in (0, 2, 3), err


def test_a_replay_keeps_the_deployed_assembly_when_a_fold_is_too_deep():
    base = assembly_from_json(json.dumps(_DEEP_BASE))
    aas = tuple(parse_aa(_deep_aspect(cond, 250)) for cond in ("CA", "CB"))
    script = [EnvEvent(0, "unselect", aa_name="deepCB"), EnvEvent(1, "select", aa_name="deepCB")]
    trace = run_scenario(base, [Cascade("c", cycles=(aas,))], script)
    deployed, failed = trace.records
    assert deployed.reports[0].failure is None and deployed.instructions > 0
    assert "nested too deeply" in failed.reports[0].failure and failed.instructions == 0
    alone, _ = weave_cascade(base, [Cascade("c", cycles=(aas[:1],))])
    assert trace.final_assembly == alone
