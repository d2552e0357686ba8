import json

from aaweave.cli import main
from aaweave.model import assembly_from_json


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
        ("component id", {"components": [{**light, "id": 5}]}),
        ("component type", {"components": [{**light, "type": 7}]}),
        ("port name", {"components": [{**light, "ports": [{"name": 1, "direction": "provided"}]}]}),
        ("port direction", {"components": [{**light, "ports": [{"name": "SetState", "direction": "up"}]}]}),
        (
            "binding component",
            {"components": [light, switch], "bindings": [{**link, "target": {"component": 5, "port": "SetState"}}]},
        ),
        (
            "binding port",
            {"components": [light, switch], "bindings": [{**link, "source": {"component": "switch", "port": 2}}]},
        ),
        ("provenance aa", {"components": [{**light, "provenance": {**woven, "aa": 5}}]}),
        ("provenance aa", {"components": [{**light, "provenance": {"kind": "woven"}}]}),
        ("provenance kind", {"components": [{**light, "provenance": {**woven, "kind": "mystery"}}]}),
        ("provenance namespace", {"components": [{**light, "provenance": {**woven, "namespace": ["n"]}}]}),
        *(
            ("provenance cycle", {"components": [{**light, "provenance": {**woven, "cycle": cycle}}]})
            for cycle in (1.9, True, "7")
        ),
        (
            "provenance cycle",
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
    assert "too many to count" in err
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
        '{"at": 0, "kind": "appear", "component": {"id": "x", "ports": ["a"]}}': "a port must be an object, not 'a'",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "ports": "a"}}': "component ports must be a list, not 'a'",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "properties": 5}}': "component properties must be an object, not 5",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "metadata": [1]}}': "component metadata must be an object, not [1]",
        '{"at": 0, "kind": "appear", "component": {"id": "x", "provenance": 5}}': "provenance must be an object, not 5",
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
