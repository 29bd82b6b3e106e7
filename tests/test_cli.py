import json
import math

import pytest

from bogopath import cli, oracle
from bogopath.params import MeasureParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_exp_quad_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--quantity", "exp-quad",
                           "--lambda", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "oracle"
    assert doc["config"]["lam"] == 0.5
    p = MeasureParams(1.0, 1.0, 1.0)
    assert doc["result"]["value"] == pytest.approx(oracle.exp_quadratic(p, 0.5))


def test_kernel_covariance_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--t", "0.3", "--s", "0.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["covariance"] == pytest.approx(
        math.cosh(0.4 - 0.5) / (2.0 * math.sinh(0.5)))


def test_kernel_grid_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--grid", "8")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["grid"]["max_inverse_residual"] < 1e-10


def test_sample_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sample", "--method", "finite", "--paths", "3",
                           "--grid", "4", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "t,path,value"
    assert len([ln for ln in lines if ln]) == 1 + 3 * 5  # header + paths*(grid+1)
    t, path, value = lines[1].split(",")  # plain float reprs, not np.float64(...)
    assert (t, path) == ("0.0", "0") and math.isfinite(float(value))


def test_sample_json_summary(capsys):
    code, out, _ = run_cli(capsys, "sample", "--paths", "5", "--grid", "8",
                           "--seed", "2")
    doc = json.loads(out)
    assert doc["result"]["n_paths"] == 5
    assert doc["result"]["grid_points"] == 9


def test_estimate_deterministic_across_threads(capsys):
    args = ["estimate", "--functional", "exp_quadratic", "--f-param", "lam=0.5",
            "--method", "kl", "--paths", "5000", "--grid", "32", "--modes", "32",
            "--seed", "3"]
    _, out1, _ = run_cli(capsys, *args, "--threads", "1")
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    d1, d4 = json.loads(out1), json.loads(out4)
    assert d1["result"] == d4["result"]


def test_estimate_monomial_f_params(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--functional", "monomial",
                           "--f-param", "times=0.2,0.6", "--paths", "20000",
                           "--grid", "64", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    p = MeasureParams(1.0, 1.0, 1.0)
    from bogopath import kernel
    exact = kernel.covariance(p, 0.2, 0.6)
    assert abs(doc["result"]["estimate"] - exact) < 5.0 * doc["result"]["std_error"]


def test_quad_thm1_with_oracle_comparison(capsys):
    code, out, _ = run_cli(capsys, "quad", "--rule", "thm1", "--n", "1",
                           "--times", "0.2,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["rel_err"] < 1e-8


def test_quad_thm4_constants(capsys):
    code, out, _ = run_cli(capsys, "quad", "--rule", "thm4", "--n", "3")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["result"]["Bk"]) == 4
    assert doc["result"]["A"] == pytest.approx(0.39806165929837145, rel=1e-10)


def test_qvar_csv(capsys):
    code, out, _ = run_cli(capsys, "qvar", "--n-list", "8,16", "--paths", "2000",
                           "--seed", "5", "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.split("\r\n") if ln]
    assert lines[0] == "N,exact_mean,exact_I_N,sample_mean,std_error"
    assert len(lines) == 3


def test_fk_json(capsys):
    code, out, _ = run_cli(capsys, "fk", "--potential", "zero", "--n-beta", "16",
                           "--n-xi", "129")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["u_final_mass"] == pytest.approx(1.0, abs=1e-3)


def test_verify_quick_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    names = {c["name"] for c in doc["result"]["criteria"]}
    assert "quadrature_exactness" in names


def test_output_file(capsys, tmp_path):
    out_file = tmp_path / "res.json"
    code, out, _ = run_cli(capsys, "kernel", "--t", "0.1", "--s", "0.2",
                           "--output", str(out_file))
    assert code == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert "covariance" in doc["result"]


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2.0}))
    _, out, _ = run_cli(capsys, "--config", str(cfg), "kernel")
    doc = json.loads(out)
    assert doc["result"]["trace_b"] == pytest.approx(
        MeasureParams(1.0, 1.0, 2.0).trace_b)
    # explicit flags still win over config defaults
    _, out2, _ = run_cli(capsys, "--config", str(cfg), "kernel", "--beta", "1.0")
    assert json.loads(out2)["result"]["trace_b"] == pytest.approx(
        MeasureParams(1.0, 1.0, 1.0).trace_b)


def test_config_file_keys_of_two_subcommands(capsys, tmp_path):
    # beta belongs to every measure subcommand, paths to sampling ones only;
    # each key still reaches the echoed config of a subcommand without it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2.0, "paths": 7}))
    _, out, _ = run_cli(capsys, "--config", str(cfg), "kernel")
    assert json.loads(out)["config"] == {"beta": 2.0, "command": "kernel", "m": 1.0,
                                         "omega": 1.0, "paths": 7}
    _, out, _ = run_cli(capsys, "--config", str(cfg), "qvar", "--n-list", "4",
                        "--seed", "1")
    doc = json.loads(out)
    assert (doc["config"]["beta"], doc["config"]["paths"]) == (2.0, 7)


def test_missing_seed_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--paths", "2"])
    assert exc.value.code == 2


def test_invalid_parameter_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--beta", "-1.0", "--t", "0.1", "--s", "0.2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--functional", "const", "--paths", "0", "--seed", "1"],
    ["sample", "--method", "kl", "--seed", "-1"],
    ["sample", "--method", "kl", "--grid", "0", "--seed", "1"],
    ["verify", "--quick", "--seed", "-1"],
])
def test_sampler_parameter_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_domain_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--quantity", "exp-quad", "--lambda", "5.0"])
    assert exc.value.code == 2


def test_numerical_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "oracle", "--quantity", "wick", "--times",
                             ",".join(["0.1"] * 14))
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "CombinatorialExplosionError"


def test_fk_divergent_fixed_point_exits_one(capsys):
    code, out, err = run_cli(capsys, "fk", "--potential", "quartic")
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "ConvergenceError"
    assert "max|V|" in diag["message"]


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_config_file_exits_two(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "kernel"])
    assert exc.value.code == 2
