import json

import numpy as np
import pytest

from sl11kit.cli import main
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
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 17


def test_emit_missing_flags(capsys):
    with pytest.raises(SystemExit):
        main(["emit-r", "--closed", "--gamma", "1.0"])


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
    assert out.splitlines()[0] == "suite,identity,residual"


def test_verify_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "r.json"
    code = main(["verify", "ybe", "--samples", "2", "--seed", "1",
                 "--tolerance", "1e-30", "--output", str(path)])
    assert code == 1
    assert json.loads(path.read_text())["passed"] is False  # report still written


def test_bad_flags_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus-suite"])
    assert err.value.code == 2


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
