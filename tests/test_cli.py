import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylheat import cli
from weylheat import factorization as fz
from weylheat import heat as ht
from weylheat import spherical as sp
from weylheat import verify as vf


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_known_value(capsys):
    code, out, _ = run_cli(["eval", "--n", "1", "--lambda", "1,0", "--x", "1,0"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(1.7182818, abs=1e-6)
    assert obj["method"] == "alt_sum"
    assert obj["warnings"] == []


def test_eval_zero_weights(capsys):
    code, out, _ = run_cli(["eval", "--n", "2", "--lambda", "0,0,0", "--x", "3,1,0"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(1.0, abs=1e-12)


def test_eval_autosort_warning(capsys):
    code, out, _ = run_cli(["eval", "--n", "1", "--lambda", "1,0", "--x", "1,2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["x"] == [2.0, 1.0]
    assert any("sorted" in w for w in obj["warnings"])


def test_eval_input_errors(capsys):
    code, _, err = run_cli(["eval", "--n", "2", "--lambda", "1,0", "--x", "1,0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--n", "1", "--lambda", "1,zebra", "--x", "1,0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["bogus-subcommand"], capsys)
    assert code == 2


def test_non_finite_input_is_an_input_error(capsys):
    for lam in ("1,nan", "inf,0"):
        code, _, err = run_cli(["eval", "--n", "1", "--lambda", lam, "--x", "1,0"], capsys)
        assert code == 2
        assert "finite" in err
    code, _, err = run_cli(["heat", "--n", "1", "--t", "1", "--x", "1,0", "--y", "0,-inf"], capsys)
    assert code == 2
    assert "finite" in err


def test_non_finite_time_and_tolerance_are_input_errors(capsys):
    for t in ("inf", "nan"):
        code, _, err = run_cli(["heat", "--n", "1", "--t", t, "--x", "1,0", "--y", "0.5,0"], capsys)
        assert code == 2
        assert "t must be positive and finite" in err
    for tol in ("inf", "nan"):
        code, _, err = run_cli(
            ["eval", "--n", "1", "--lambda", "1,0", "--x", "1,0", "--tolerance", tol], capsys
        )
        assert code == 2
        assert "target_rel_err" in err


def test_tolerances_reference_times_radii_and_axis_ends_are_input_errors(capsys):
    x, y = [1.2, 0.0], [1.0, -0.3]
    lam3, x3 = [2.0, 1.0, 0.0], [3.0, 1.0, 0.0]
    inp = fz.FactorInput.of(lam3, x3)
    ctx1 = ht.make_heat_context(1)
    calls = [
        ("target_rel_err", lambda v: sp.psi_stable(lam3, x3, v)),
        ("tol", lambda v: sp.psi_iter_quadrature(lam3, x3, v)),
        ("tol", lambda v: fz.master_integral(inp, v)),
        ("tol", lambda v: fz.factor_integral(inp, 2, v)),
        ("tol", lambda v: ht.calibrate_constant(1, tol=v)),
        ("tol", lambda v: ht.semigroup_check(ctx1, 0.5, 0.5, x, y, tol=v)),
        ("tol", lambda v: ht.inverse_fourier_oracle(ctx1, 0.7, x, y, tol=v)),
        ("t_ref", lambda v: ht.calibrate_constant(1, t_ref=v)),
        ("r", lambda v: ht.ball_volume(x, v)),
        ("r", lambda v: ht.log_ball_volume(x, v)),
    ]
    for bad in (0.0, -1.0, math.nan, math.inf):
        for name, call in calls:
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                call(bad)
    for lo, hi in ((1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="axis ends must be finite"):
            vf.AxisSpec(lo, hi, 3)
    for mode in ("log_grid", "random"):  # a log-uniform draw from lo = 0 divided by zero
        with pytest.raises(ValueError, match="log axis needs lo > 0"):
            vf.SweepConfig(rank=1, lam_axis=vf.AxisSpec(0.0, 1.0, 2), x_axis=vf.AxisSpec(0.5, 1.0, 2),
                           mode=mode, samples=3, seed=1)
    for argv in (
        ["eval", "--n", "2", "--lambda", "2,1,0", "--x", "3,1,0", "--method", "iter",
         "--tolerance", "nan"],
        ["constants", "--n", "1", "--t-ref", "nan"],
        ["constants", "--n", "1", "--t-ref", "-1"],
        ["constants", "--n", "3", "--t-ref", "nan"],
        ["sweep", "--n", "1", "--lam-range", "1:inf:3"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "must be" in err


def test_eval_numerical_failure_exit_code(capsys):
    # the pure alternating sum cannot handle coincident coordinates: input error
    code, _, err = run_cli(
        ["eval", "--n", "1", "--lambda", "1,1", "--x", "2,0", "--method", "alt"], capsys
    )
    assert code == 2
    # a quadrature tolerance impossible at rank > 3 with degenerate input: numerical
    code, _, err = run_cli(
        ["eval", "--n", "4", "--lambda", "2,1,1,0.5,0", "--x", "3,2,1,0.5,0",
         "--method", "iter"], capsys
    )
    assert code == 2  # RankTooLarge for the chain recursion


def test_eval_methods_agree(capsys):
    args = ["eval", "--n", "2", "--lambda", "2,1,0", "--x", "3,1,0"]
    _, out1, _ = run_cli(args + ["--method", "stable"], capsys)
    _, out2, _ = run_cli(args + ["--method", "iter"], capsys)
    a = json.loads(out1)["log_value"]
    b = json.loads(out2)["log_value"]
    assert a == pytest.approx(b, abs=1e-8)


def test_eval_plain_format(capsys):
    code, out, _ = run_cli(
        ["eval", "--n", "1", "--lambda", "1,0", "--x", "1,0", "--format", "plain"], capsys
    )
    assert code == 0
    assert len(out.strip().split("\n")) >= 5


def test_heat_subcommand_flat_and_curved(capsys):
    code, out, _ = run_cli(
        ["heat", "--n", "1", "--t", "1.0", "--x", "1,0", "--y", "1,0"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["log_envelope"] == pytest.approx(math.log(0.5))
    assert math.isfinite(obj["log_value"])
    code, out, _ = run_cli(
        ["heat", "--n", "1", "--t", "0.5", "--x", "1.2,0", "--y", "0.9,-0.1",
         "--kind", "curved"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert math.isfinite(obj["log_value"]) and math.isfinite(obj["log_envelope"])


def test_heat_symmetry_through_cli(capsys):
    a = json.loads(run_cli(["heat", "--n", "1", "--t", "0.7", "--x", "1.5,0", "--y", "0.8,-0.2"], capsys)[1])
    b = json.loads(run_cli(["heat", "--n", "1", "--t", "0.7", "--x", "0.8,-0.2", "--y", "1.5,0"], capsys)[1])
    assert a["log_value"] == pytest.approx(b["log_value"], abs=1e-12)


def test_constants_output(capsys):
    code, out, _ = run_cli(["constants", "--n", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["gamma"] == 1 and obj["d"] == 2 and obj["weyl_order"] == 2
    assert obj["rho"] == [1.0, -1.0]
    assert obj["mms_fullspace"] == pytest.approx(4 * math.pi, rel=1e-9)
    assert obj["c_k_calibrated"] == pytest.approx(obj["c_k_chamber_mms"], rel=1e-6)
    code, out, _ = run_cli(["constants", "--n", "2"], capsys)
    obj = json.loads(out)
    assert obj["gamma"] == 3 and obj["d"] == 3 and obj["weyl_order"] == 6


def test_constants_and_heat_run_at_rank_4_and_5(capsys):
    def mehta_chamber(n):
        m = n + 1
        moment = (2 * math.pi) ** (m / 2) * math.prod(math.factorial(j) for j in range(1, m + 1))
        return moment / math.factorial(m)

    code, out, _ = run_cli(["constants", "--n", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["c_k_chamber_mms"] == pytest.approx(mehta_chamber(5), rel=1e-15)
    assert obj["mms_fullspace"] == pytest.approx(720 * mehta_chamber(5), rel=1e-15)
    code, out, _ = run_cli(["heat", "--n", "4", "--t", "0.7", "--x", "4,3,2,1,0",
                            "--y", "2,1.5,1,0.5,0"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["c_k"] == pytest.approx(mehta_chamber(4), rel=1e-15)
    assert obj["c_k_provenance"] == "mms_closed_form"
    assert math.isfinite(obj["log_value"])


def test_constants_past_binary64_is_an_input_error(capsys):
    code, _, err = run_cli(["constants", "--n", "30"], capsys)
    assert code == 2
    assert "binary64" in err


def test_sweep_writes_report_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["sweep", "--kind", "psi", "--n", "1", "--lam-range", "0.5:2.0:2",
            "--x-range", "0.5:2.0:2", "--mode", "grid"]
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert len(obj["records"]) == 4  # 2-point grid, 2 gap axes


def test_sweep_random_requires_seed(capsys):
    code, _, err = run_cli(
        ["sweep", "--kind", "psi", "--n", "1", "--mode", "random", "--samples", "5"], capsys
    )
    assert code == 2


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(["sweep", "--kind", "psi", "--n", "1", "--lam-range", "0.5:2.0:2",
                     "--x-range", "0.5:2.0:2", "--mode", "grid", "--format", "csv",
                     "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("index,")
    assert len(text.strip().split("\n")) == 5


def test_verify_suite_exit_zero(tmp_path):
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--n", "1", "--suite", "props", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["passed"] is True


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "lam": "1,0", "x": "1,0"}))
    code, out, _ = run_cli(["--config", str(cfg), "eval"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.e - 1, rel=1e-9)
    # flags override the config file
    code, out, _ = run_cli(["--config", str(cfg), "eval", "--x", "2,0"], capsys)
    assert json.loads(out)["x"] == [2.0, 0.0]


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(["--config", str(cfg), "eval", "--n", "1", "--lambda", "1,0", "--x", "1,0"],
                           capsys)
    assert code == 2
    assert "JSON object" in err


def test_console_entry_point_subprocess():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "weylheat", "eval", "--n", "1", "--lambda", "1,0", "--x", "1,0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "alt_sum"
