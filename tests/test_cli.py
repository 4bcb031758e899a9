"""Command-line surface: subcommands, JSON stack parsing, exit codes, and
deterministic output."""

import json

import numpy as np
import pytest

import predsens as ps
from predsens import registry
from predsens.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, parse_linear_stack,
                          parse_scheme, run, serialize_linear_stack)

R2_CONFIG = {"dims": [1, 1], "blocks": [[[[1.0]], [[-2.0]]], [[[0.5]], [[-0.5]]]]}


def test_simulate_divergence_is_reported_not_an_error(tmp_path):
    out = tmp_path / "sim"
    code = run(["simulate", "--stack", "r2", "--scheme", "singular:1,0.6",
                "--dt", "0.01", "--t-end", "200", "--out", str(out)])
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["diverged"] is True
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2"


def test_simulate_deterministic_output(tmp_path):
    args = ["simulate", "--stack", "tracking", "--scheme", "predsens",
            "--dt", "1e-3", "--t-end", "0.5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_stability_report_r2(tmp_path):
    out = tmp_path / "stab"
    code = run(["stability", "--stack", "r2", "--scheme", "predsens",
                "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "stability.json").read_text())
    assert report["verdict"] == "ExponentiallyStable"
    assert report["eigenvalues"] == [[-1.0, 0.0], [-0.5, 0.0]]


def test_cascade_report(tmp_path):
    out = tmp_path / "casc"
    assert run(["cascade", "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "cascade.json").read_text())
    assert data["s_row"] == [-1.0, -1.0]
    assert max(p[0] for p in data["eig_plain"]) > 1e-6
    assert max(p[0] for p in data["eig_conditioned"]) < 0.0


def test_bilevel_command(tmp_path, capsys):
    out = tmp_path / "bil"
    code = run(["bilevel", "--method", "ps", "--tau", "0.25", "--x0", "0.4,0.4",
                "--iters", "200", "--out", str(out)])
    assert code == EXIT_OK
    assert "converged=true" in capsys.readouterr().out
    lines = (out / "iterates.csv").read_text().splitlines()
    assert lines[0] == "iter,x1,x2,residual"


def test_rlc_command_quick(tmp_path):
    out = tmp_path / "rlc"
    code = run(["rlc", "--kpi", "250", "--kii", "500", "--dt", "1e-4",
                "--t-end", "0.02", "--out", str(out)])
    assert code == EXIT_OK
    header = (out / "blackstart.csv").read_text().splitlines()[0]
    assert header == ("t,v_re,v_im,zeta_v_re,zeta_v_im,"
                      "i_re,i_im,zeta_i_re,zeta_i_im,v_mag_pu,freq_hz")
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"stable", "overshoot_pu", "settling_time_s"}


def test_parse_linear_stack_r2():
    stack = parse_linear_stack(R2_CONFIG)
    table = ps.total_derivative_table(stack, [0.0, 0.0])
    assert np.allclose(table.sens[1][0], [[1.0]], atol=0)


def test_parse_linear_stack_scalar_decay():
    stack = parse_linear_stack({"dims": [1], "blocks": [[[[-1.0]]]]})
    assert np.allclose(stack.field(np.array([2.0])), [-2.0], atol=0)


def test_parse_linear_stack_three_levels():
    config = {"dims": [1, 1, 1],
              "blocks": [[[[-1.0]], [[1.0]], [[1.0]]],
                         [[[1.0]], [[-2.0]], [[1.0]]],
                         [[[1.0]], [[1.0]], [[-3.0]]]]}
    stack = parse_linear_stack(config)
    table = ps.total_derivative_table(stack, np.zeros(3))
    assert np.allclose(table.sens[1][0], [[0.8]], atol=1e-14)
    assert np.allclose(table.total[0][0], [[0.4]], atol=1e-14)


def test_parse_linear_stack_rejects_ragged():
    bad = {"dims": [1, 2],
           "blocks": [[[[1.0]], [[1.0, 2.0]]],
                      [[[1.0], [1.0]], [[1.0, 2.0]]]]}  # block (1,1) wrong shape
    with pytest.raises(ValueError) as err:
        parse_linear_stack(bad)
    assert "(1,1)" in str(err.value)


def test_linear_stack_round_trip():
    config = {"dims": [1, 1],
              "blocks": [[[[1.0]], [[-2.0]]], [[[0.5]], [[-0.5]]]],
              "offsets": [[0.25], [-1.5]]}
    stack = parse_linear_stack(config)
    assert serialize_linear_stack(stack) == config
    again = parse_linear_stack(serialize_linear_stack(stack))
    x = np.array([0.3, -0.8])
    assert np.array_equal(stack.field(x), again.field(x))


@pytest.mark.parametrize("name", ["r2", "tracking", "linear3", "cascade", "rlc"])
def test_builtin_affine_stack_round_trip(name):
    """A serialized builtin stack evaluates bit for bit like the original."""
    stack = registry.get_stack(name)
    again = parse_linear_stack(serialize_linear_stack(stack))
    for x in np.random.default_rng(8).normal(scale=100.0, size=(5, stack.total_dim)):
        assert np.array_equal(stack.field(x), again.field(x))
        for sub, sub_again in zip(stack.subsystems, again.subsystems):
            for block, block_again in zip(sub.jacobian(x), sub_again.jacobian(x)):
                assert np.array_equal(block, block_again)


def test_stack_file_input(tmp_path):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(R2_CONFIG))
    out = tmp_path / "out"
    code = run(["simulate", "--stack-file", str(path), "--scheme", "predsens",
                "--x0", "1,1", "--dt", "0.01", "--t-end", "0.1",
                "--out", str(out)])
    assert code == EXIT_OK


@pytest.mark.parametrize("args, steps", [
    (["--method", "gda", "--eps", "0.5", "--x0", "0.05,-0.206"], 63),
    (["--method", "ps", "--x0=-0.406,0.449"], 1)])
def test_bilevel_run_off_exits_0(tmp_path, capsys, args, steps):
    assert run(["bilevel", *args, "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == (f"bilevel: converged=false after {steps} "
                                       f"iterations (residual nan)\n")
    rows = (tmp_path / "iterates.csv").read_text().splitlines()
    assert len(rows) == steps + 2 and rows[-1].endswith(",nan")


def test_config_errors_exit_2(tmp_path):
    assert run(["simulate", "--stack", "nope", "--scheme", "plain",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    stack_file = tmp_path / "stack.json"
    stack_file.write_text(json.dumps(R2_CONFIG))
    assert run(["simulate", "--stack", "r2", "--stack-file", str(stack_file),
                "--out", str(tmp_path)]) == EXIT_CONFIG  # exactly one source
    assert run(["stability", "--stack", "r2", "--scheme", "bogus",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["simulate", "--stack", "r2", "--scheme", "singular:0.5,0.1,0.1",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["bilevel", "--method", "gda", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["bilevel", "--example", "other", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["simulate", "--no-such-flag"]) == EXIT_CONFIG
    # t_end = 1 is not a whole number of 0.4 steps
    assert run(["simulate", "--stack", "r2", "--scheme", "predsens", "--dt", "0.4",
                "--t-end", "1", "--out", str(tmp_path / "short")]) == EXIT_CONFIG
    assert not (tmp_path / "short").exists()
    # non-finite settings
    assert run(["simulate", "--stack", "r2", "--t-end", "inf",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["simulate", "--stack", "r2", "--divergence-threshold", "nan",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["bilevel", "--tau", "nan", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("args", [
    ["--stack", "r2", "--scheme", "singular:1,0.6", "--dt", "0.05", "--t-end", "10000"],
    ["--stack", "linear3", "--scheme", "plain", "--dt", "0.5", "--t-end", "5000"],
    ["--stack", "bilevel-example", "--scheme", "predsens", "--dt", "0.5", "--t-end", "5000"]])
def test_unbounded_run_ends_diverged_before_overflow(tmp_path, capsys, args):
    """Without a divergence threshold a growing run (affine or not) ends as
    diverged once it passes OVERFLOW_LIMIT, with no warning or error."""
    assert run(["simulate", *args, "--divergence-threshold", "inf",
                "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["diverged"] is True
    assert metrics["t_final"] < float(args[-1])


def test_numerical_errors_exit_3(tmp_path):
    # fast diagonal block is exactly zero: the sensitivity solve must fail
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(
        {"dims": [1, 1], "blocks": [[[[-1.0]], [[1.0]]], [[[1.0]], [[0.0]]]]}))
    code = run(["stability", "--stack-file", str(path), "--scheme", "predsens",
                "--point", "0,0", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL


def test_scheme_grammar_epsilon_forms(r2_stack):
    full = parse_scheme("singular:1,0.5", 2, r2_stack, np.zeros(2))
    implied = parse_scheme("singular:0.5", 2, r2_stack, np.zeros(2))
    assert full.epsilons == implied.epsilons == (1.0, 0.5)
    approx = parse_scheme("approx:frozen", 2, r2_stack, np.zeros(2))
    assert isinstance(approx, ps.ApproximateSensitivity)
    noisy = parse_scheme("approx:noise:0.1", 2, r2_stack, np.zeros(2))
    assert isinstance(noisy, ps.ApproximateSensitivity)
    precond = parse_scheme("precond:2,3", 2, r2_stack, np.zeros(2))
    assert precond.gains == (2.0, 3.0)
