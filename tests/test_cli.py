"""Command line interface: exit codes, formats, golden outputs."""

import json
import subprocess
import sys
import time

import pytest

from planechow import calc, cli, groebner, moduli
from planechow.cli import main, parse_range

TABLE_4_TO_6_CSV = (
    "d,A,B,C\n"
    "4,-2,-16,-7\n"
    "5,-82,-592,-277\n"
    "6,-882,-6012,-2877\n"
)


def test_parse_range():
    assert parse_range("7") == (7, 7)
    assert parse_range("4..9") == (4, 9)
    with pytest.raises(Exception):
        parse_range("x..y")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--d", "0..3"],
        ["verify", "--d", "5..2"],
        ["verify", "--d", "1..65"],
        ["verify", "--d", "4", "--jobs", "-1"],
        ["table", "--from", "3", "--to", "5"],
        ["table", "--from", "6", "--to", "4"],
        ["lambda", "--d", "0"],
        ["eval", "c1", "--d", "0"],
        ["eval", "c1", "--generic", "--d", "4"],
        ["bogus"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_max_d_raises_the_cap(capsys):
    assert main(["verify", "--d", "65..65", "--max-d", "65"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].endswith("PASS")


def test_verify_text(capsys):
    assert main(["verify", "--d", "1..5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for d, line in zip(range(1, 6), lines):
        assert line.startswith(f"d={d} ")
        assert line.endswith("PASS")
    assert "mumford=n/a" in lines[0]
    assert "mumford=ok" in lines[4]


def test_verify_json(capsys):
    assert main(["verify", "--d", "4", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1
    rec = records[0]
    assert rec["d"] == 4 and rec["pass"] is True
    assert rec["smooth"]["graded_dims"] == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert rec["nodal"]["graded_dims"] == [1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert rec["mumford_ok"] is True


def test_verify_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(cli.moduli, "syzygy_holds", lambda d: False)
    assert main(["verify", "--d", "4"]) == 1
    out = capsys.readouterr().out
    assert "syzygy=FAIL" in out and out.rstrip().endswith("FAIL")


def test_present_text(capsys):
    assert main(["present", "--d", "1..4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith("PASS") for line in lines)
    assert lines[0].startswith("d=1 locus=smooth ideal_equal=True")


def test_table_text(capsys):
    assert main(["table", "--from", "4", "--to", "6"]) == 0
    assert capsys.readouterr().out == (
        "d=4 A=-2 B=-16 C=-7\n"
        "d=5 A=-82 B=-592 C=-277\n"
        "d=6 A=-882 B=-6012 C=-2877\n"
    )


def test_table_csv(capsys):
    assert main(["table", "--from", "4", "--to", "6", "--format", "csv"]) == 0
    assert capsys.readouterr().out == TABLE_4_TO_6_CSV


def test_table_json(capsys):
    assert main(["table", "--from", "5", "--to", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"d": 5, "A": -82, "B": -592, "C": -277}
    ]


def test_table_certifies_each_row(monkeypatch, capsys):
    # wrong entries at d=5 (B, C) and d=6 (A): the rows still print, and
    # stderr names the first mismatch with both values
    real = cli.table_row
    wrong = {5: {"B": 1, "C": 1}, 6: {"A": 1}}

    def table_row(d):
        row = real(d)
        return {k: v + wrong.get(d, {}).get(k, 0) for k, v in row.items()}

    monkeypatch.setattr(cli, "table_row", table_row)
    assert main(["table", "--from", "4", "--to", "6", "--format", "csv"]) == 1
    out, err = capsys.readouterr()
    assert out == (
        "d,A,B,C\n"
        "4,-2,-16,-7\n"
        "5,-82,-591,-276\n"
        "6,-881,-6012,-2877\n"
    )
    assert err == "table: d=5 column B is -591, the closed form gives -592\n"


def test_lambda_json_degree_four(capsys):
    assert main(["lambda", "--d", "4", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["genus"] == 3
    assert rec["delta"] == "-36*c1"
    assert rec["lambda1_raw"] == "-4*c1"
    assert rec["lambda2_reduced"] == "8*c1^2"
    assert rec["lambda3_reduced"] == "-80/7*c1^3"
    assert rec["abc"] == [-2, -16, -7]
    assert rec["mumford_ok"] is True and rec["pass"] is True


def test_lambda_small_degrees(capsys):
    assert main(["lambda", "--d", "2", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["lambda2_reduced"] is None and rec["mumford_ok"] is None
    assert rec["pass"] is True

    assert main(["lambda", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "lambda1 = -c1" in out
    assert "lambda2 vanishes: ok" in out
    assert out.rstrip().endswith("PASS")


def test_lambda_text_degree_four(capsys):
    assert main(["lambda", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert "lambda3 reduced = -80/7*c1^3  [ok]" in out
    assert "abc = (-2, -16, -7)" in out
    assert "mumford = ok" in out


def test_eval_generic(capsys):
    assert main(["eval", "push(euler_twist(d - 1))"]) == 0
    assert capsys.readouterr().out == "(-d^3 + 2*d^2 - d)*c1\n"


def test_eval_at_degree(capsys):
    assert main(["eval", "nf(c1^4, nodal, 7)", "--d", "7"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_eval_errors_exit_one(capsys):
    assert main(["eval", "c1 + * c2"]) == 1
    assert capsys.readouterr().out == (
        "error: expected a number, identifier or '(' at 5..6\n"
    )
    assert main(["eval", "nf(c1, nodal, 4)"]) == 1
    assert "needs a specific degree" in capsys.readouterr().out
    chain = " + ".join(["c1"] * 5000)
    assert main(["eval", chain]) == 1
    assert capsys.readouterr().out == (
        f"error: expression nested too deeply at 0..{len(chain)}\n"
    )


def test_eval_exponent_over_budget_exits_one(capsys):
    start = time.perf_counter()
    assert main(["eval", "c1^100000000"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == (
        "error: exponent 100000000 exceeds the budget 64 at 0..12\n"
    )


def test_eval_nf_degree_must_equal_d(capsys):
    assert main(["eval", "nf(c1^4, nodal, 7)", "--d", "9"]) == 1
    assert capsys.readouterr().out == (
        "error: nf(...) is at degree 7 but --d is 9 at 0..18\n"
    )


def _count_calls(monkeypatch, calls, module, name):
    """Replace module.name by a wrapper that counts its calls in calls[name]."""
    original = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("d", [3, 6])
def test_each_basis_and_relation_triple_is_built_once(d, monkeypatch):
    # verify, then lambda, then nf at the same degree: Buchberger runs for
    # the two relation ideals and the two claimed targets, nothing more
    calls = {"buchberger": 0, "smooth_relation": 0, "nodal_relation": 0}
    _count_calls(monkeypatch, calls, groebner, "buchberger")
    # moduli holds its own reference, imported by name
    monkeypatch.setattr(moduli, "buchberger", groebner.buchberger)
    _count_calls(monkeypatch, calls, moduli, "smooth_relation")
    _count_calls(monkeypatch, calls, moduli, "nodal_relation")
    moduli.relations.cache_clear()
    moduli.groebner_basis.cache_clear()
    assert cli.verify_record(d)["pass"]
    assert cli.lambda_record(d)["pass"]
    calc.run(f"nf(c1^4, nodal, {d})", at=d)
    # three relations each with d formal and at d
    assert calls == {"buchberger": 4, "smooth_relation": 6, "nodal_relation": 6}


@pytest.mark.parametrize("d", [4, 7, 20])
def test_lambda_record_takes_one_normal_form_per_class(d, monkeypatch):
    # NF(lambda2), NF(lambda3), NF(c1^2) and NF(c1^3); every lambda and
    # Mumford check follows from these four by linearity
    cli.lambda_record(d)
    calls = {"normal_form": 0}
    _count_calls(monkeypatch, calls, groebner, "normal_form")
    monkeypatch.setattr(moduli, "normal_form", groebner.normal_form)
    assert cli.lambda_record(d)["pass"]
    assert calls == {"normal_form": 4}


def _failing_at_five(monkeypatch, claim):
    """Replace one claim's check in the table by one that fails at d = 5."""

    def check(t, original=claim.check):
        return False if t.d == 5 else original(t)

    table = tuple(
        c._replace(check=check) if c is claim else c for c in moduli.CLAIMS
    )
    monkeypatch.setattr(moduli, "CLAIMS", table)


@pytest.mark.parametrize("claim", moduli.CLAIMS, ids=lambda c: c.key)
def test_each_claim_can_fail_verify(claim, monkeypatch, capsys):
    _failing_at_five(monkeypatch, claim)
    assert main(["verify", "--d", "4..6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" PASS") and lines[2].endswith(" PASS")
    assert f" {claim.label}=FAIL " in lines[1] and lines[1].endswith(" FAIL")
    assert lines[1].count("=FAIL") == 1
    assert main(["verify", "--d", "5", "--format", "json"]) == 1
    (record,) = json.loads(capsys.readouterr().out)
    assert record[claim.key] is False and record["pass"] is False


@pytest.mark.parametrize("claim", moduli.CLAIMS, ids=lambda c: c.key)
def test_each_tautological_claim_can_fail_lambda(claim, monkeypatch, capsys):
    _failing_at_five(monkeypatch, claim)
    expected = 1 if claim.tautological else 0
    assert main(["lambda", "--d", "5"]) == expected
    assert capsys.readouterr().out.endswith("FAIL\n" if expected else "PASS\n")
    assert main(["lambda", "--d", "5", "--format", "json"]) == expected
    record = json.loads(capsys.readouterr().out)
    assert record["pass"] is not expected
    if claim.tautological:
        assert record[claim.key] is False


@pytest.mark.parametrize(
    "argv",
    [["lambda", "--d", "65"], ["table", "--from", "60", "--to", "65"]],
)
def test_lambda_and_table_degrees_are_capped(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "planechow: error: degree 65 exceeds the cap 64; raise --max-d"
    )
    assert main(argv + ["--max-d", "65"]) == 0
    assert capsys.readouterr().out


def test_import_loads_only_what_the_command_needs():
    # diffed against the bare interpreter, so whatever site preloads is moot
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import planechow.cli\n"
        "imported = sorted(set(sys.modules) - before)\n"
        "planechow.cli.main(['eval', 'c1'])\n"
        "print(json.dumps([imported, 'planechow.calc' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    imported, calc_after_eval = json.loads(proc.stdout.splitlines()[-1])
    assert "planechow.cli" in imported
    for heavy in ("concurrent.futures.process", "planechow.calc", "dataclasses"):
        assert heavy not in imported
    assert calc_after_eval


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    assert main(
        ["table", "--from", "4", "--to", "6", "--format", "csv", "--out", str(path)]
    ) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == TABLE_4_TO_6_CSV


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--from", "4", "--to", "5"],
        ["lambda", "--d", "3"],
        ["eval", "c1"],
    ],
)
def test_out_to_unwritable_path_is_a_usage_error(tmp_path, argv, capsys):
    target = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"planechow: error: cannot write --out {target}: "
        "No such file or directory"
    )


def test_parallel_output_is_deterministic(tmp_path):
    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    base = ["verify", "--d", "3..6", "--format", "json"]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_jobs_auto(capsys):
    assert main(["table", "--from", "4", "--to", "7", "--jobs", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "planechow.cli", "table", "--from", "4", "--to", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "d=4 A=-2 B=-16 C=-7\n"
