import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from semirings import cli, completion
from semirings.core import (enumerate_semirings, is_orderable, is_zero_sum_free,
                            natural_quasiorder, semiring_to_json)
from semirings.gallery import boolean, xor_semiring

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "semirings.cli", *args],
                          capture_output=True, text=True)


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


@pytest.mark.parametrize("name", ["nope", "powerset:x", "lang:3:3"])
def test_gallery_bad_name_exits_two(capsys, name):
    assert cli.main(["gallery", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_finitary_huge_multiplicity_exits_two(tmp_path, capsys):
    fams = tmp_path / "huge.jsonl"
    fams.write_text('{"family": {"1": "fin:99999999"}}\n', encoding="utf-8")
    assert cli.main(["finitary", "nat-infinity", str(fams)]) == 2
    err = capsys.readouterr().err
    assert "too large for subsum enumeration" in err and err.count("\n") == 1


def test_maxlen_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gallery", "--maxlen", "2"])
    assert exc.value.code == 2


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
    calls = _counting(monkeypatch, completion, "check_sigma_axioms")
    assert cli.main([command, str(write_boolean(tmp_path)), "--battery", "60"]) == 0
    assert len(calls) == certified


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
