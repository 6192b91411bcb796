import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semirings import cardinal, cli, completion, core, gallery, suite
from semirings.core import (FiniteSemiring, check_semiring_axioms,
                            enumerate_semirings, is_orderable, is_zero_sum_free,
                            natural_quasiorder, semiring_to_json)
from semirings.gallery import boolean, xor_semiring
from test_core import generator_law_violations

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    # the child runs this checkout's package, installed or not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "semirings.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def write_boolean(tmp_path: Path) -> Path:
    path = tmp_path / "boolean.json"
    _, order = is_orderable(boolean())
    path.write_text(semiring_to_json(boolean(), order), encoding="utf-8")
    return path


def write_xor(tmp_path: Path) -> Path:
    path = tmp_path / "xor.json"
    path.write_text(semiring_to_json(xor_semiring()), encoding="utf-8")
    return path


def test_check_boolean(tmp_path):
    result = run_cli(["check", str(write_boolean(tmp_path)), "--format", "json"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["axioms"] == "pass"
    assert doc["orderable"] is True
    assert doc["zero-sum-free"] is True
    assert doc["natural-quasiorder"] == ["11", "01"]


def test_check_xor_is_a_semiring_but_not_orderable(tmp_path):
    result = run_cli(["check", str(write_xor(tmp_path)), "--format", "json"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["orderable"] is False
    assert "orderable-witness" in doc


def test_check_axiom_violation_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "elements": ["0", "1"], "zero": 0, "one": 1,
        "add": [[0, 1], [0, 1]], "mul": [[0, 0], [0, 1]]}), encoding="utf-8")
    result = run_cli(["check", str(path)])
    assert result.returncode == 1


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli(["check", str(path)])
    assert result.returncode == 2
    assert "error" in result.stderr


def test_out_of_range_table_exits_two(tmp_path):
    path = tmp_path / "range.json"
    path.write_text(json.dumps({
        "elements": ["0", "1"], "zero": 0, "one": 1,
        "add": [[0, 9], [1, 1]], "mul": [[0, 0], [0, 1]]}), encoding="utf-8")
    result = run_cli(["check", str(path)])
    assert result.returncode == 2


def test_complete_gallery_lang():
    result = run_cli(["complete", "lang:1:2", "--format", "json",
                      "--battery", "120"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["finitary-report"] == "pass"


def test_complete_xor_exits_one_with_witness(tmp_path):
    result = run_cli(["complete", str(write_xor(tmp_path)), "--format", "json"])
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["orderable"] is False
    assert "witness" in doc


def test_complete_nat_reports_nat_infinity():
    result = run_cli(["complete", "nat", "--format", "json"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["completion"] == "nat-infinity"


def test_dcomplete_three_valued_fails_with_witness():
    result = run_cli(["dcomplete", "three-valued", "--format", "json",
                      "--battery", "100"])
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["d-complete"] is False
    assert "finite" in doc["witness"]


def test_dcomplete_four_valued_passes():
    result = run_cli(["dcomplete", "four-valued", "--battery", "100"])
    assert result.returncode == 0, result.stderr


def test_finitary_omega_minus_fails():
    result = run_cli(["finitary", "omega-minus", "--format", "json",
                      "--battery", "100"])
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["finitary"] is False
    assert "sup-missing" in doc["witness"]


def test_finitary_powerset_passes():
    result = run_cli(["finitary", "powerset:3", "--battery", "100"])
    assert result.returncode == 0, result.stderr


def test_congruence_verdict_json(tmp_path):
    result = run_cli(["congruence", str(write_boolean(tmp_path)),
                      "1*[1]", "2*[1]", "--format", "json"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["sim"] is True
    assert doc["lesssim-forward"] is True and doc["lesssim-backward"] is True


def test_congruence_distinguishes_values(tmp_path):
    result = run_cli(["congruence", str(write_boolean(tmp_path)),
                      "0*[]", "1*[1]", "--format", "json"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["sim"] is False
    assert doc["witness"] is not None


def test_congruence_bad_polynomial_exits_two(tmp_path):
    result = run_cli(["congruence", str(write_boolean(tmp_path)),
                      "1*[1]", "1*[zz]"])
    assert result.returncode == 2


def test_gallery_listing_and_member():
    result = run_cli(["gallery"])
    assert result.returncode == 0
    assert "omega-minus" in result.stdout
    result = run_cli(["gallery", "four-valued", "--format", "json"])
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["sigma-axioms"] == "pass"


def test_adjoin_inf_input_path(tmp_path):
    result = run_cli(["dcomplete", f"adjoin-inf:{write_boolean(tmp_path)}",
                      "--format", "json", "--battery", "80"])
    assert result.returncode == 1  # the chain 0 < 1 < inf is not d-complete
    doc = json.loads(result.stdout)
    assert doc["d-complete"] is False


def test_unknown_gallery_name_exits_two():
    result = run_cli(["check", "not-a-semiring"])
    assert result.returncode == 2


def test_finitary_with_family_file(tmp_path):
    fams = tmp_path / "families.jsonl"
    fams.write_text('{"family": {"1": "aleph0"}}\n'
                    '{"family": {"2": "fin:3", "inf": "fin:1"}}\n',
                    encoding="utf-8")
    result = run_cli(["finitary", "nat-infinity", str(fams), "--format", "json"])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["families"] == 2


def test_dcomplete_with_sequence_file(tmp_path):
    seqs = tmp_path / "seqs.jsonl"
    seqs.write_text('{"prefix": [], "cycle": ["finite"]}\n', encoding="utf-8")
    result = run_cli(["dcomplete", "three-valued", str(seqs), "--format", "json"])
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["d-complete"] is False and doc["sequences"] == 1


def test_selftest_same_seed_byte_identical():
    args = ["selftest", "--seed", "3", "--battery", "60"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout


def test_selftest_other_seed_same_verdicts():
    base = run_cli(["selftest", "--seed", "3", "--battery", "60"])
    other = run_cli(["selftest", "--seed", "4", "--battery", "60"])
    verdicts = [line.split(":")[0] for line in base.stdout.splitlines()[1:]]
    others = [line.split(":")[0] for line in other.stdout.splitlines()[1:]]
    assert verdicts == others


@pytest.mark.parametrize("seed, battery", [(1, None), (1, 60), (2, 60), (3, 60)])
def test_selftest_matches_golden(capsys, seed, battery):
    args = ["selftest", "--seed", str(seed)]
    name = f"selftest_seed{seed}.txt"
    if battery is not None:
        args += ["--battery", str(battery)]
        name = f"selftest_seed{seed}_battery{battery}.txt"
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["nope", "powerset:x", "lang:3:3", "powerset:",
                                  "lang:2", "lang:x:2", "lang:2:y",
                                  "lang:1:99999999", "lang:2:40"])
def test_gallery_bad_name_exits_two(capsys, name):
    assert cli.main(["gallery", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    if name not in ("nope", "lang:3:3", "lang:1:99999999", "lang:2:40"):
        assert "expected " + name.split(":")[0] + ":K" in err


def test_gallery_member_without_sigma(capsys):
    assert cli.main(["gallery", "nat", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] is False
    assert doc["sigma-axioms"] == "n/a"


def test_boolean_zero_index_exits_two(tmp_path, capsys):
    path = tmp_path / "zero-true.json"
    doc = json.loads(semiring_to_json(boolean()))
    path.write_text(json.dumps({**doc, "zero": True}), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    assert "zero must be an integer index" in capsys.readouterr().err


@pytest.mark.parametrize("order", [[[0, "a"]], [[0.5, 1]], [[True, 1]]])
def test_non_integer_order_entry_exits_two(tmp_path, capsys, order):
    path = tmp_path / "order.json"
    doc = json.loads(semiring_to_json(boolean()))
    path.write_text(json.dumps({**doc, "order": order}), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: order pairs must hold integer indices\n"


@pytest.mark.parametrize("member", ["nat-infinity", "omega-minus"])
def test_finitary_huge_multiplicity_gets_a_verdict(tmp_path, capsys, member):
    fams = tmp_path / "huge.jsonl"
    fams.write_text('{"family": {"1": "fin:20000"}}\n'
                    '{"family": {"1": "fin:99999999"}}\n'
                    '{"family": {"2": "fin:99999999", "0": "aleph0"}}\n', encoding="utf-8")
    assert cli.main(["finitary", member, str(fams), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["finitary"] is True and out["families"] == 3


def test_maxlen_flag_is_gone(capsys):
    for flag in ("--maxlen", "--cap"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gallery", flag, "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, member, line", [
    ("dcomplete", "omega-minus", '{"cycle": [1]}'),
    ("dcomplete", "nat-infinity", '{"cycle": [1.7]}'),
    ("dcomplete", "nat-infinity", '{"cycle": [true]}'),
    ("dcomplete", "nat-infinity", '{"prefix": [null], "cycle": ["1"]}'),
    ("dcomplete", "boolean", '{"prefix": [null], "cycle": ["1"]}'),
    ("finitary", "nat-infinity", '{"family": {"1": 3}}'),
    ("finitary", "powerset:1", '{"family": {"1": 3}}'),
])
def test_jsonl_non_string_values_exit_two(tmp_path, capsys, command, member, line):
    path = tmp_path / "lines.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert cli.main([command, member, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["check", "{}"], ["finitary", "boolean", "{}"],
                                  ["dcomplete", "boolean", "{}"]])
def test_non_utf8_file_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{\x00}")
    assert cli.main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["check", "{}"], ["finitary", "boolean", "{}"],
                                  ["dcomplete", "boolean", "{}"]])
def test_nul_in_a_path_exits_two(capsys, argv):
    # no OS argv can hold a NUL, but cli.main takes any list of strings
    path = "a\x00.json"
    assert cli.main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: embedded null byte\n"


@pytest.mark.parametrize("argv", [["check", "{}"], ["finitary", "boolean", "{}"],
                                  ["dcomplete", "boolean", "{}"]])
def test_deeply_nested_json_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert cli.main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("invalid JSON: nested too deeply\n")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_congruence_refuses_a_below_set_past_the_bound(capsys):
    # 301**3 + 2 polynomials: enumerating them did not finish within 20 s
    assert cli.main(["congruence", "boolean", "300*[1] + 300*[0] + 300*[]",
                     "1*[1]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 27270903 polynomials lie below the two sides; "
                            "congruence enumerates at most 100000\n")


def test_congruence_bound_counts_both_sides(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_BELOW", 8)
    assert cli.main(["congruence", "boolean", "3*[1]", "3*[0]"]) == 0
    assert cli.main(["congruence", "boolean", "4*[1]", "3*[0]"]) == 2
    assert "9 polynomials" in capsys.readouterr().err


def test_check_and_complete_print_the_same_absorption_witness(tmp_path, capsys):
    # the least triple on a size-4 table with labels other than 0 and 1
    s = next(s for s in enumerate_semirings(4) if not is_orderable(s)[0])
    path = tmp_path / "t.json"
    path.write_text(semiring_to_json(s), encoding="utf-8")
    a, x, y = (s.label(i) for i in is_orderable(s)[1])
    want = f"{a}+{x}+{y} = {a} but {a}+{x} != {a}"
    cli.main(["check", str(path), "--format", "json"])
    assert json.loads(capsys.readouterr().out)["orderable-witness"] == want
    assert cli.main(["complete", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == want


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _jsonl_documents(v):
    """Places for an arbitrary JSON value in a family or a sequence line."""
    return [v, {"family": v}, {"family": {"1": v}}, {"family": {"0": "fin:1", "1": v}},
            {"family": {"1": "aleph0"}, "cycle": v}, {"cycle": v}, {"cycle": [v]},
            {"prefix": [v], "cycle": ["1"]}, {"prefix": v, "cycle": ["0"]}]


@given(command=st.sampled_from(["dcomplete", "finitary"]),
       member=st.sampled_from(["boolean", "powerset:1", "nat-infinity", "omega-minus"]),
       value=_JSON_VALUES, place=st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_arbitrary_json_in_jsonl_lines_never_raises(tmp_path_factory, command, member,
                                                    value, place):
    path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
    path.write_text(json.dumps(_jsonl_documents(value)[place]) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, member, str(path)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1


SMALL_SEMIRINGS = [s for n in (1, 2, 3, 4) for s in enumerate_semirings(n)]


@st.composite
def table_documents(draw):
    """(document, well formed): a table document with n <= 5, either random
    cells or a semiring of size <= 4 (with its natural order when it has
    one), then perhaps one mutated cell, row, field type or field."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        idx = st.integers(0, n - 1)
        matrix = st.lists(st.lists(idx, min_size=n, max_size=n), min_size=n, max_size=n)
        doc = {"elements": [f"e{i}" for i in range(n)], "zero": draw(idx),
               "one": draw(idx), "add": draw(matrix), "mul": draw(matrix)}
    else:
        s = draw(st.sampled_from(SMALL_SEMIRINGS))
        orderable, order = is_orderable(s)
        doc = json.loads(semiring_to_json(s, order if orderable and draw(st.booleans())
                                          else None))
    n = len(doc["elements"])
    mutation = draw(st.sampled_from([None, "cell", "row", "field", "drop", "order"]))
    if mutation == "cell":
        row = doc[draw(st.sampled_from(["add", "mul"]))][draw(st.integers(0, n - 1))]
        row[draw(st.integers(0, n - 1))] = draw(_JSON_VALUES | st.integers(-2, n + 1))
    elif mutation == "row":
        row = doc[draw(st.sampled_from(["add", "mul"]))][draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append(0)
        else:
            row.pop()
    elif mutation == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_VALUES)
    elif mutation == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif mutation == "order":
        pair = st.lists(st.integers(-1, n), min_size=2, max_size=2)
        doc["order"] = draw(st.lists(pair, max_size=4))
    return doc, mutation is None


@given(command=st.sampled_from(["check", "order"]), case=table_documents())
@settings(max_examples=150, deadline=None)
def test_table_documents_through_main_never_raise(tmp_path_factory, command, case):
    doc, well_formed = case
    path = tmp_path_factory.mktemp("tables") / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") <= 1
    if well_formed:
        s = FiniteSemiring.from_tables(doc["elements"], doc["zero"], doc["one"],
                                       doc["add"], doc["mul"])
        want = [f"{law} at {witness}" for law, witness in generator_law_violations(
            range(s.n), s.add, s.mul, s.zero, s.one)]
        if want:
            assert code == 1
        elif command == "check":  # order also exits 1 where no order is compatible
            assert code == 0
        assert json.loads(out.getvalue()).get("violations", []) == want


BAD_ORDER = {"elements": ["0", "1"], "zero": 0, "one": 1,
             "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]], "order": [[1, 0]]}


@pytest.mark.parametrize("argv", [["check"], ["order"], ["complete"], ["dcomplete"],
                                  ["finitary"], ["congruence", "1*[1]", "1*[0]"]])
def test_incompatible_supplied_order_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "bad-order.json"
    path.write_text(json.dumps(BAD_ORDER), encoding="utf-8")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "zero-least" in captured.err


@pytest.mark.parametrize("battery", ["0", "-3"])
def test_battery_below_one_exits_two(capsys, battery):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--battery", battery])
    assert exc.value.code == 2
    assert "--battery: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("battery", [str(cli.MAX_BATTERY + 1), "1000000000"])
def test_battery_above_the_maximum_exits_two(capsys, battery):
    # refused before any battery is built, so the huge value allocates nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["finitary", "boolean", "--battery", battery])
    assert exc.value.code == 2
    assert (f"--battery: must be at most {cli.MAX_BATTERY}, got {battery}"
            in capsys.readouterr().err)
    assert cli.main(["check", "boolean", "--battery", str(cli.MAX_BATTERY)]) == 0


def test_printed_natural_quasiorder_on_every_small_table(tmp_path, capsys):
    # orderable tables print the natural order that is_orderable returns;
    # it must be the natural quasiorder itself
    tables = [s for n in (1, 2, 3) for s in enumerate_semirings(n)] + [xor_semiring()]
    assert any(not is_orderable(s)[0] for s in tables)
    for i, s in enumerate(tables):
        path = tmp_path / f"t{i}.json"
        path.write_text(semiring_to_json(s), encoding="utf-8")
        want = ["".join("1" if x else "0" for x in row)
                for row in natural_quasiorder(s).rel]
        for command in ("check", "order"):
            cli.main([command, str(path), "--format", "json"])
            assert json.loads(capsys.readouterr().out)["natural-quasiorder"] == want


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("command, certified", [("complete", 1), ("dcomplete", 0),
                                                ("finitary", 0)])
def test_only_complete_certifies_the_completion(tmp_path, monkeypatch, capsys,
                                                command, certified):
    calls = _counting(monkeypatch, completion, "check_sigma_table")
    # the certificate is exact, so `complete` builds no battery
    batteries = [_counting(monkeypatch, cardinal, name) for name in
                 ("check_sigma_axioms", "family_battery", "omega_sequence_battery")]
    assert cli.main([command, str(write_boolean(tmp_path)), "--battery", "60"]) == 0
    assert len(calls) == certified
    assert batteries == [[], [], []]


@pytest.mark.parametrize("command, battery, line", [
    ("finitary", "family_battery", '{"family": {"1": "fin:2"}}'),
    ("dcomplete", "omega_sequence_battery", '{"cycle": ["1"]}'),
])
def test_battery_is_built_only_without_a_file(tmp_path, monkeypatch, capsys,
                                              command, battery, line):
    calls = _counting(monkeypatch, cli, battery)
    path = tmp_path / "lines.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert cli.main([command, "boolean", str(path)]) == 0
    assert calls == []
    assert cli.main([command, "boolean", "--battery", "60"]) == 0
    assert len(calls) == 1


def sigma_command_transcript(workdir: Path) -> str:
    """dcomplete and finitary on every table of size <= 3 and on xor, as
    plain tables, with their natural order, and with infinity adjoined:
    one header line with the exit code per run, then its stdout."""
    tables = [s for n in (1, 2, 3) for s in enumerate_semirings(n)] + [xor_semiring()]
    inputs = []
    for i, s in enumerate(tables):
        orderable, order = is_orderable(s)
        (workdir / f"t{i}.json").write_text(semiring_to_json(s), encoding="utf-8")
        inputs.append(f"t{i}.json")
        if orderable:
            (workdir / f"t{i}-ordered.json").write_text(semiring_to_json(s, order),
                                                        encoding="utf-8")
            inputs.append(f"t{i}-ordered.json")
        if is_zero_sum_free(s)[0]:
            inputs.append(f"adjoin-inf:t{i}.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for source in inputs:
            for command in ("dcomplete", "finitary"):
                print(f"$ {command} {source} --battery 60")
                print(f"exit {cli.main([command, source, '--battery', '60'])}")
    return out.getvalue()


def test_sigma_commands_on_every_small_table_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = (GOLDEN / "sigma_commands_small_tables.txt").read_text(encoding="utf-8")
    assert sigma_command_transcript(tmp_path) == want


NOT_A_SEMIRING = {"elements": ["0", "1"], "zero": 0, "one": 1,
                  "add": [[0, 1], [0, 0]], "mul": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("argv", [["complete"], ["dcomplete"], ["finitary"],
                                  ["congruence", "1*[1]", "1*[0]"]])
def test_table_breaking_the_laws_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "not-a-semiring.json"
    path.write_text(json.dumps(NOT_A_SEMIRING), encoding="utf-8")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path} is not a semiring: ['add-associativity', "
                            f"'add-commutativity', 'add-identity']\n")


@pytest.mark.parametrize("command", ["dcomplete", "finitary"])
def test_adjoin_inf_to_a_zero_sum_table_exits_two(tmp_path, capsys, command):
    path = write_xor(tmp_path)
    assert cli.main([command, f"adjoin-inf:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not zero-sum-free: 1+1 = 0\n"


LAW_GALLERY = ["boolean", "three-valued", "four-valued",
               *(f"powerset:{k}" for k in range(5)), *(f"lang:1:{L}" for L in range(7)),
               *(f"lang:2:{L}" for L in range(3)), *(f"lang:3:{L}" for L in range(2))]


def law_breaking_variant(s: FiniteSemiring, seed: int):
    """s with one cell changed so that some semiring law fails: the first
    such change in a seeded shuffle of every (table, row, column, value)
    change.  None when every change keeps the laws (one element)."""
    n = s.n
    changes = [(name, i, j, v) for name in ("add", "mul") for i in range(n)
               for j in range(n) for v in range(n) if getattr(s, name)[i][j] != v]
    random.Random(seed).shuffle(changes)
    for name, i, j, v in changes:
        tables = {"add": [list(row) for row in s.add], "mul": [list(row) for row in s.mul]}
        tables[name][i][j] = v
        t = FiniteSemiring.from_tables(s.elements, s.zero, s.one,
                                       tables["add"], tables["mul"])
        if not check_semiring_axioms(t).passed:
            return t
    return None


def law_command_transcript(workdir: Path) -> str:
    """check, order, complete and one congruence pair, as JSON, on the
    gallery members of LAW_GALLERY and on every table of size <= 3 with one
    law-breaking variant of each: one header line per run, then its stdout,
    its stderr and its exit code."""
    inputs = list(LAW_GALLERY)
    for i, s in enumerate(s for n in (1, 2, 3) for s in enumerate_semirings(n)):
        (workdir / f"t{i}.json").write_text(semiring_to_json(s), encoding="utf-8")
        inputs.append(f"t{i}.json")
        broken = law_breaking_variant(s, i)
        if broken is not None:
            (workdir / f"t{i}-broken.json").write_text(semiring_to_json(broken),
                                                       encoding="utf-8")
            inputs.append(f"t{i}-broken.json")
    out = io.StringIO()
    for source in inputs:
        s = cli._load_finite(source)[0]
        top = s.label(s.n - 1)
        for argv in (["check"], ["order"], ["complete"],
                     ["congruence", f"1*[{top}]", f"2*[{top}]"]):
            argv = [argv[0], source, *argv[1:], "--format", "json"]
            print("$ " + " ".join(argv), file=out)
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            print(err.getvalue() + f"exit {code}", file=out)
    return out.getvalue()


def test_law_commands_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = (GOLDEN / "law_commands.txt").read_text(encoding="utf-8")
    assert law_command_transcript(tmp_path) == want


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("value", [True, 2.0, "1", -1, 4])
def test_bad_cell_in_a_late_row_exits_two(tmp_path, capsys, table, value):
    # the rows before it pass the row-wise check; the bad row is read cell by cell
    doc = json.loads(semiring_to_json(next(enumerate_semirings(4))))
    doc[table][3][2] = value
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {table}[3][2] = {value!r} out of range\n"


_ARGV_TOKENS = st.sampled_from([
    *cli._COMMANDS,
    "boolean", "nat", "nat-infinity", "three-valued", "four-valued", "omega-minus",
    "powerset:2", "lang:1:2", "lang:2:2", "adjoin-inf:boolean",
    "nope", "powerset:x", "lang:3:3", "lang:1:99999999", "adjoin-inf:", "adjoin-inf:nope",
    "--seed", "--battery", "--format", "json", "human", "xml", "--battery=0",
    "--battery=60", "--seed=-3", "--format=json", "--help", "--maxlen", "--",
    "", "-", "x", "0", "-1", "1*[1]", "2*[a] + 1*[0]", "{}", "missing.json",
    "a\x00.json", "tests", "\udcff"])


@given(command=st.sampled_from(sorted(cli._COMMANDS)),
       rest=st.lists(_ARGV_TOKENS, max_size=5), lead=st.booleans())
@settings(max_examples=150, deadline=None)
def test_mutated_argv_never_raises(command, rest, lead):
    argv = [command, *rest] if lead else rest
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse: --help, or a malformed argv
            code = e.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def _count_order_checks(monkeypatch):
    """Count is_orderable and check_ordered_semiring calls, wherever the
    package looks them up."""
    counts = {"is_orderable": 0, "check_ordered_semiring": 0}
    for name in counts:
        real = getattr(core, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in (core, cli, completion, suite, gallery):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    return counts


@pytest.mark.parametrize("member", ["lang:2:2", "powerset:4"])
def test_gallery_members_are_ordered_once(monkeypatch, capsys, member):
    # a gallery member's order is its natural order, so `complete` takes the
    # one is_orderable returns and checks no supplied order
    counts = _count_order_checks(monkeypatch)
    assert cli.main(["complete", member]) == 0
    assert counts == {"is_orderable": 1, "check_ordered_semiring": 0}
    counts.update(dict.fromkeys(counts, 0))
    assert suite.criterion_main_theorem(suite.SuiteConfig()).passed
    # one is_orderable per table of size <= 3, inside completion_semiring
    assert counts == {"is_orderable": 9, "check_ordered_semiring": 0}


@pytest.mark.parametrize("battery", [1, 60, 99, 100, 150, 500, 100000])
def test_suite_derives_the_battery_sizes(battery):
    cfg = cli.RunConfig(inputs=(), seed=4, battery=battery).suite
    assert cfg == suite.SuiteConfig(4, battery)
    assert cfg.families == battery
    assert cfg.sequences == max(40, battery * 2 // 5)
    assert cfg.triples == max(40, battery * 3 // 5)
