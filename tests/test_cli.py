import csv
import hashlib
import io
import json
import re

import numpy as np
import pytest

from sl11kit import algebra, cli, qaffine, qalgebra, rmatrix, suites
from sl11kit.cli import main
from sl11kit.coproduct import ALGEBRAS
from sl11kit.graded import SuperMatrix
from sl11kit.report import Report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_emit_trig_permutation(capsys):
    code, out = run(capsys, "emit-r", "--trig",
                    "--theta1", "0.7853981633974483",
                    "--theta2", "0.7853981633974483", "--lambda", "0")
    assert code == 0
    blob = json.loads(out)
    mat = SuperMatrix.from_dict(blob["matrix"]).m
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    expect[1, 2] = expect[2, 1] = 1.0
    expect[3, 3] = -1.0
    assert np.abs(mat - expect).max() == 0.0


def test_emit_closed_and_solve_agree(capsys, tmp_path):
    argv = ["emit-r", "--closed", "--gamma", "1.3-0.4j", "--nu", "0.7648+0.6442j",
            "--gamma2", "0.8+0.3j", "--nu2", "0.9394-0.3429j"]
    code, out = run(capsys, *argv)
    assert code == 0
    closed = SuperMatrix.from_dict(json.loads(out)["matrix"]).m
    argv[1] = "--solve"
    code, out = run(capsys, *argv)
    assert code == 0
    solved = SuperMatrix.from_dict(json.loads(out)["matrix"]).m
    assert np.abs(closed - solved).max() <= 1e-8


def test_emit_csv_format(capsys):
    code, out = run(capsys, "emit-r", "--trig", "--theta1", "0.3",
                    "--theta2", "0.4", "--lambda", "0.1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["row", "col", "re", "im"]
    assert len(rows) == 16
    entries = np.zeros((4, 4), dtype=complex)
    for row in rows:
        entries[int(row["row"]), int(row["col"])] = complex(float(row["re"]), float(row["im"]))
    np.testing.assert_array_equal(entries, rmatrix.r_trig(0.3, 0.4, 0.1).m)


def test_emit_missing_flags(capsys):
    with pytest.raises(SystemExit):
        main(["emit-r", "--closed", "--gamma", "1.0"])


@pytest.mark.parametrize("argv, message", [
    (["--trig", "--theta1", "0.3"], "--trig needs --theta1, --theta2 and --lambda"),
    (["--closed", "--gamma", "1.0"], "closed/solved form needs --gamma, --nu, --gamma2 and --nu2"),
    (["--q-closed", "--q", "1.1", "--nu", "1j"],
     "deformed form needs --q, --lambda1, --lambda1-b, --nu and --nu2"),
    (["--closed", "--rep-a", "a.json", "--rep-b", "b.json"],
     "representation files require --solve with both --rep-a and --rep-b"),
], ids=["trig", "closed", "deformed", "rep-files"])
def test_emit_usage_errors_exit_2_with_the_message_on_stderr(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["emit-r", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("angles", [("0", "0", "0"), ("1.5707963267948966",) * 2 + ("0",)],
                         ids=["zero", "half-pi"])
def test_emit_degenerate_trig_exits_2_with_the_message(angles, capsys):
    theta1, theta2, lam = angles
    with pytest.raises(SystemExit) as exc:
        main(["emit-r", "--trig", "--theta1", theta1, "--theta2", theta2, "--lambda", lam])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "all six coefficients vanish" in captured.err and not captured.out


def test_params_xpm_massless(capsys):
    code, out = run(capsys, "params", "xpm", "--p", "1.0", "--M", "0", "--h", "1.0")
    assert code == 0
    blob = json.loads(out)
    xp = complex(*blob["x"]["xplus"])
    assert abs(xp - np.exp(0.5j)) < 1e-12
    assert "gamma" in blob["labels"]


def test_params_qx(capsys):
    code, out = run(capsys, "params", "qx", "--xplus", "1.4+0.9j", "--xi", "3.0+0.5j",
                    "--delta", "0.35-0.1j", "--q", "1.12+0.05j")
    assert code == 0
    blob = json.loads(out)
    assert "qlam1" in blob["labels"]


def test_emit_q_closed(capsys):
    code, out = run(capsys, "emit-r", "--q-closed", "--q", "1.12+0.05j",
                    "--lambda1", "0.9-0.2j", "--lambda1-b", "0.6+0.5j",
                    "--nu", "0.921+0.389j", "--nu2", "0.825-0.565j")
    assert code == 0
    assert json.loads(out)["form"] == "q-closed"


def test_rep_file_round_trip(capsys, tmp_path):
    for tag, p, m in (("a", "1.0", "0.5"), ("b", "0.7", "1.5")):
        code, out = run(capsys, "params", "xpm", "--p", p, "--M", m,
                        "--h", "1.0", "--emit-rep")
        assert code == 0
        (tmp_path / f"{tag}.json").write_text(
            json.dumps(json.loads(out)["representation"]))
    code, out = run(capsys, "emit-r", "--solve",
                    "--rep-a", str(tmp_path / "a.json"),
                    "--rep-b", str(tmp_path / "b.json"))
    assert code == 0
    assert json.loads(out)["form"] == "solved"


def test_readme_rep_round_trip_reads_the_emitted_payload(capsys, tmp_path):
    # sl11kit params xpm --p 1.0 --M 0.5 --h 1.0 --emit-rep > left.json
    code, out = run(capsys, "params", "xpm", "--p", "1.0", "--M", "0.5", "--h", "1.0",
                    "--emit-rep")
    assert code == 0
    left = tmp_path / "left.json"
    left.write_text(out)
    code, out = run(capsys, "emit-r", "--solve", "--rep-a", str(left), "--rep-b", str(left))
    assert code == 0
    assert json.loads(out)["form"] == "solved"


@pytest.mark.parametrize("text", ['{"x": 1}', "[1, 2]", "not json"])
def test_a_file_that_is_no_representation_is_a_usage_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rep = tmp_path / "rep.json"
    run(capsys, "params", "xpm", "--p", "1.0", "--M", "0.5", "--h", "1.0", "--emit-rep",
        "-o", str(rep))
    with pytest.raises(SystemExit) as exc:
        main(["emit-r", "--solve", "--rep-a", str(rep), "--rep-b", str(bad)])
    assert exc.value.code == 2
    assert f"{bad} is not a representation file" in capsys.readouterr().err


def test_verify_suite_exit_code_and_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["verify", "singlet", "--samples", "2", "--seed", "3",
                 "--output", str(path)])
    assert code == 0
    blob = json.loads(path.read_text())
    assert blob["passed"] is True
    assert blob["suite"] == "singlet"
    assert "timestamp" in blob


def test_verify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "all", "--samples", "2", "--seed", "7", "--no-timestamp"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv(capsys):
    code, out = run(capsys, "verify", "ybe", "--samples", "2", "--seed", "1",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "suite,identity,residual,tolerance,passed"


def test_verify_all_csv_has_one_header_row(capsys, tmp_path):
    path = tmp_path / "all.json"
    argv = ["verify", "all", "--samples", "1", "--seed", "0", "--no-timestamp"]
    assert main(argv + ["--output", str(path)]) == 0
    cases = sum(len(s["cases"]) for s in json.loads(path.read_text())["suites"])
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert not [row for row in rows if row["suite"] == "suite"]
    assert len(rows) == cases


#: sha256 of the (suite, identity, passed) rows of ``verify all --samples 2
#: --no-timestamp``; residuals are left out, so they may move in the last bit.
VERIFY_ALL_CASES = "754fed32891ac2e3afe81dc532eb36560d89cec513974d0a6ad05fc7c8afc5f6"
#: The same digest over the rows without the hopf suite's affine Hopf-axiom cases
#: (``[k]affine-...``): the rows from before those cases were added, each unchanged
#: and in order.
VERIFY_ALL_CASES_BEFORE_AFFINE_HOPF = (
    "d8774e2c62f165f17a521d4d7ccb6772b914a1c1620aca7d61adc06db79acdcd")


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_verify_all_keeps_its_case_names_and_pass_flags(seed, tmp_path):
    path = tmp_path / "all.json"
    assert main(["verify", "all", "--samples", "2", "--seed", str(seed), "--no-timestamp",
                 "--output", str(path)]) == 0
    rows = [[s["suite"], c["identity"], c["residual"] <= c.get("tolerance", s["tolerance"])]
            for s in json.loads(path.read_text())["suites"] for c in s["cases"]]
    assert len(rows) == 778
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == VERIFY_ALL_CASES
    before = [row for row in rows
              if not (row[0] == "hopf" and re.match(r"\[\d+\]affine-", row[1]))]
    assert len(before) == 662
    assert (hashlib.sha256(json.dumps(before).encode()).hexdigest()
            == VERIFY_ALL_CASES_BEFORE_AFFINE_HOPF)


def test_verify_csv_marks_failed_cases(capsys):
    code, out = run(capsys, "verify", "ybe", "--samples", "2", "--seed", "1",
                    "--tolerance", "1e-30", "--format", "csv")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    for row in rows:
        assert float(row["tolerance"]) == 1e-30
        assert row["passed"] == "false"


def test_verify_records_warnings_in_the_timestamped_payload(monkeypatch, tmp_path):
    original = algebra.singlet_report

    def warning_singlet_report(*args, **kwargs):
        # weights on the shortening locus: lambda1 lambda2 = mu1 mu2 = 0
        algebra.typical_rep(0.0, 1.0, 1.0, (-0.5, 0.5))
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra, "singlet_report", warning_singlet_report)
    path = tmp_path / "r.json"
    argv = ["verify", "singlet", "--samples", "2", "--seed", "3", "--output", str(path)]
    assert main(argv) == 0
    assert json.loads(path.read_text())["warnings"] == [
        {"category": "AtypicalLocusWarning",
         "message": "weights sit on the shortening locus", "count": 2}]
    assert main(argv + ["--no-timestamp"]) == 0
    assert "warnings" not in json.loads(path.read_text())
    path = tmp_path / "all.json"
    assert main(["verify", "all", "--samples", "1", "--seed", "3",
                 "--output", str(path)]) == 0
    assert {"suite": "singlet", "category": "AtypicalLocusWarning",
            "message": "weights sit on the shortening locus",
            "count": 1} in json.loads(path.read_text())["warnings"]


def test_verify_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "r.json"
    code = main(["verify", "ybe", "--samples", "2", "--seed", "1",
                 "--tolerance", "1e-30", "--output", str(path)])
    assert code == 1
    assert json.loads(path.read_text())["passed"] is False  # report still written


@pytest.mark.parametrize("kind", ["classical", "q", "affine"])
def test_emit_solve_reads_representation_files_of_every_registry_kind(capsys, tmp_path, kind):
    rng = np.random.default_rng(5)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    labels = {"classical": [suites.draw_labels(rng, alpha) for _ in range(2)],
              "q": [suites.draw_qlabels(rng, q, alpha) for _ in range(2)]}
    build = {"classical": algebra.atypical_rep, "q": qalgebra.q_atypical_rep,
             "affine": qaffine.affine_eval_rep}
    assert set(build) == set(ALGEBRAS)
    reps = [build[kind](lab) for lab in labels.get(kind, labels["q"])]
    paths = [tmp_path / f"{tag}.json" for tag in "ab"]
    for path, rep in zip(paths, reps):
        path.write_text(json.dumps(rep.to_dict()))
    code, out = run(capsys, "emit-r", "--solve", "--rep-a", str(paths[0]),
                    "--rep-b", str(paths[1]))
    assert code == 0
    mat = SuperMatrix.from_dict(json.loads(out)["matrix"]).m
    assert rmatrix.intertwining_report(mat, *reps).max_residual <= 1e-10


def test_a_representation_of_unknown_kind_is_a_usage_error(capsys, tmp_path):
    rep = tmp_path / "rep.json"
    run(capsys, "params", "xpm", "--p", "1.0", "--M", "0.5", "--h", "1.0", "--emit-rep",
        "-o", str(rep))
    blob = json.loads(rep.read_text())
    blob["representation"]["kind"] = "yangian"
    rep.write_text(json.dumps(blob))
    with pytest.raises(SystemExit) as exc:
        main(["emit-r", "--solve", "--rep-a", str(rep), "--rep-b", str(rep)])
    assert exc.value.code == 2
    assert f"{rep} holds a module of unknown kind 'yangian'" in capsys.readouterr().err


CLOSED = ["--gamma", "1.3-0.4j", "--nu", "0.7648+0.6442j", "--gamma2", "0.8+0.3j",
          "--nu2", "0.9394-0.3429j"]
DEFORMED = ["--q", "1.12+0.05j", "--lambda1", "0.9-0.2j", "--lambda1-b", "0.6+0.5j",
            "--nu", "0.921+0.389j", "--nu2", "0.825-0.565j"]


@pytest.mark.parametrize("argv, message", [
    (["--trig", "--theta1", "0.3", "--theta2", "0.4", "--lambda", "0.1", "--gamma", "5",
      "--q", "1.2", "--root", "1", "--coupling", "3"],
     "--trig does not take --gamma, --coupling, --q, --root"),
    (["--closed", "--gamma", "1", "--nu", "1j", "--gamma2", "2", "--nu2", "0.5j", "--q", "1.2",
      "--lambda1", "0.3", "--theta1", "0.2"],
     "closed/solved form does not take --theta1, --q, --lambda1"),
    (["--solve", *CLOSED, "--root", "0"], "closed/solved form does not take --root"),
    (["--q-closed", *DEFORMED, "--gamma", "1.0"], "deformed form does not take --gamma"),
    (["--solve", *DEFORMED, "--gamma2", "1.0"], "deformed form does not take --gamma2"),
    (["--solve", "--rep-a", "a.json", "--rep-b", "b.json", "--nu", "1j", "--coupling", "1"],
     "--solve --rep-a/--rep-b does not take --nu, --coupling"),
], ids=["trig", "closed", "solve", "q-closed", "solve-q", "files"])
def test_emit_rejects_a_flag_its_form_does_not_read(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["emit-r", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("form, labels, defaults", [
    ("--closed", CLOSED, ["--coupling", "1"]),
    ("--solve", CLOSED, ["--coupling", "1"]),
    ("--q-closed", DEFORMED, ["--coupling", "1", "--root", "0"]),
    ("--solve", DEFORMED, ["--root", "0"]),
])
def test_emit_takes_the_default_coupling_and_root_where_it_reads_them(form, labels, defaults,
                                                                       capsys):
    code, implicit = run(capsys, "emit-r", form, *labels)
    assert code == 0
    code, explicit = run(capsys, "emit-r", form, *labels, *defaults)
    assert code == 0 and explicit == implicit


@pytest.mark.parametrize("argv, message", [
    (["params", "qx", "--xplus", "0", "--xi", "3", "--delta", "0.3", "--q", "1.1"],
     "x+ must be nonzero"),
    (["params", "qx", "--xplus", "1.4", "--xi", "1", "--delta", "0.3", "--q", "1.1"],
     "xi^2 neither 0 nor 1"),
    (["params", "qx", "--xplus", "1.4", "--xi", "3", "--delta", "0.3", "--q", "1"],
     "root of unity"),
    (["params", "xpm", "--p", "0", "--M", "0.5", "--h", "1"], "e^{ip} = 1"),
    (["params", "xpm", "--p", "1", "--M", "0.5", "--h", "0"], "h must be nonzero"),
    (["emit-r", "--closed", "--gamma", "0", "--nu", "1j", "--gamma2", "2", "--nu2", "0.5j"],
     "gamma must be nonzero"),
    (["emit-r", "--q-closed", *DEFORMED[:1], "1", *DEFORMED[2:]], "root of unity"),
], ids=["qx-xplus", "qx-xi", "qx-q", "xpm-p", "xpm-h", "closed-gamma", "q-closed-q"])
def test_degenerate_input_is_a_usage_error_not_a_traceback(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert not captured.out


def test_bad_flags_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus-suite"])
    assert err.value.code == 2


def test_main_reuses_one_parser_and_matches_a_fresh_one(capsys, monkeypatch):
    runs = [
        ["verify", "singlet", "--samples", "1", "--seed", "3", "--no-timestamp"],
        ["verify", "ybe", "--samples", "1", "--seed", "1", "--format", "csv"],
        ["verify", "hopf", "--samples", "1", "--levels", "3"],
        ["verify", "affine", "--samples", "1", "--seed", "0", "--no-timestamp",
         "--tolerance", "1e-30"],
        ["params", "xpm", "--p", "1.0", "--M", "0", "--h", "1.0"],
        ["emit-r", "--trig", "--theta1", "0.3", "--theta2", "0.4", "--lambda", "0.1"],
        ["verify", "bogus-suite"],
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as err:
            code = err.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert cli._build_parser() is cli._build_parser()
    cached = [outcome(argv) for argv in runs + runs]
    assert [code for code, _, _ in cached] == [0, 0, 2, 1, 0, 0, 2] * 2
    assert cached[:len(runs)] == cached[len(runs):]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert [outcome(argv) for argv in runs] == cached[:len(runs)]


def test_report_round_trip_and_median():
    rpt = Report("demo", 1e-10)
    rpt.add("a", 1e-12)
    rpt.add("b", 5e-11)
    rpt.add("c", 2e-12)
    assert rpt.passed
    assert abs(rpt.median_residual - 2e-12) < 1e-20
    d = rpt.to_dict(include_timestamp=False)
    assert d["max_residual"] == 5e-11
    assert "timestamp" not in d


def test_report_merge_counts_warnings():
    rpt, other = Report("demo"), Report("part")
    rpt.warnings = [("UserWarning", "a", 2)]
    other.warnings = [("UserWarning", "b", 1), ("UserWarning", "a", 1)]
    rpt.merge(other, prefix="[0]")
    assert rpt.warnings == [("UserWarning", "a", 3), ("UserWarning", "b", 1)]


def test_report_per_case_tolerance():
    rpt = Report("demo", 1e-10)
    rpt.add("loose", 5e-9, tolerance=1e-8)
    assert rpt.passed
    rpt.add("strict", 5e-9)
    assert not rpt.passed


@pytest.mark.parametrize("suite", ["yangian", "affine"])
def test_verify_tolerance_flag_applies_to_every_case(suite, tmp_path):
    path = tmp_path / "r.json"
    argv = ["verify", suite, "--samples", "1", "--seed", "0", "--no-timestamp"]
    assert main(argv + ["--output", str(path)]) == 0
    blob = json.loads(path.read_text())
    assert blob["passed"] is True and "tolerance_override" not in blob
    assert any("tolerance" in case for case in blob["cases"])
    assert main(argv + ["--tolerance", "1e-30", "--output", str(path)]) == 1
    blob = json.loads(path.read_text())
    assert blob["passed"] is False
    assert blob["tolerance"] == blob["tolerance_override"] == 1e-30
    assert not any("tolerance" in case for case in blob["cases"])


@pytest.mark.parametrize("suite, flag", [("hopf", "--offshell"), ("singlet", "--levels"),
                                         ("affine", "--order"), ("ybe", "--levels")])
def test_verify_rejects_flag_the_suite_does_not_take(suite, flag, capsys):
    argv = ["verify", suite, "--samples", "1", flag]
    if flag != "--offshell":
        argv.append("3")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_verify_all_passes_each_flag_to_the_suites_that_take_it(tmp_path):
    path = tmp_path / "all.json"
    code = main(["verify", "all", "--samples", "1", "--seed", "2", "--offshell",
                 "--levels", "2", "--no-timestamp", "--output", str(path)])
    assert code == 0
    by_suite = {r["suite"]: r for r in json.loads(path.read_text())["suites"]}
    assert by_suite["yangian"]["levels"] == 2


@pytest.mark.parametrize("suite, flag, value, message", [
    ("ybe", "--samples", "0", "must be at least 1, got 0"),
    ("ybe", "--samples", "-1", "must be at least 1, got -1"),
    ("all", "--samples", "0", "must be at least 1, got 0"),
    ("yangian", "--levels", "-1", "must be at least 0, got -1"),
    ("yangian", "--order", "0", "must be at least 2, got 0"),
    ("yangian", "--order", "1", "must be at least 2, got 1"),
    ("ybe", "--samples", "many", "invalid int value: 'many'"),
])
def test_verify_rejects_out_of_range_counts_at_parse_time(suite, flag, value, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", suite, flag, value])
    assert err.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_verify_takes_the_smallest_counts_in_range(capsys):
    code, out = run(capsys, "verify", "yangian", "--samples", "1", "--levels", "0",
                    "--order", "2", "--no-timestamp")
    assert code == 0
    blob = json.loads(out)
    assert (blob["samples"], blob["levels"], blob["order"]) == (1, 0, 2)
