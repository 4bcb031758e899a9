"""Command-line surface: subcommands, JSON stack parsing, exit codes, and
deterministic output."""

import json

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs, registry
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


def test_config_errors_exit_2(tmp_path, capsys):
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
    # a noise scale is checked when the provider is built, not at a field call
    for sigma in ("-1", "nan"):
        assert run(["simulate", "--stack", "bilevel-example", "--scheme",
                    f"approx:noise:{sigma}", "--out", str(tmp_path / "noise")]) == EXIT_CONFIG
    assert not (tmp_path / "noise").exists()
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
    assert run(["bilevel", "--x0", "0.4,0.4", "--iters", "-5",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    # non-finite inputs are rejected where they are read, naming the input
    capsys.readouterr()
    for args, named in (
            (["stability", "--stack", "r2", "--point", "nan,0"], "point"),
            (["stability", "--stack", "r2", "--tol", "nan", "--point", "1,1"], "tol"),
            (["stability", "--stack", "r2", "--scheme", "precond:1,nan"], "gain 1"),
            (["simulate", "--stack", "r2", "--scheme", "precond:1,nan"], "gain 1"),
            (["simulate", "--stack", "r2", "--scheme", "singular:1,nan"], "epsilons"),
            (["bilevel", "--x0", "nan,0"], "x0"),
            (["bilevel", "--tol", "nan", "--x0", "0.4,0.4"], "tol"),
            (["rlc", "--kpi", "nan", "--t-end", "0.001"], "k_pi"),
            (["rlc", "--kpi", "inf", "--t-end", "0.001"], "k_pi"),
            (["cascade", "--kp2", "inf"], "kp2 must be finite, got inf"),
            (["cascade", "--a1", "nan"], "a1 must be finite, got nan")):
        assert run([*args, "--out", str(tmp_path / "nonfinite")]) == EXIT_CONFIG, args
        err = capsys.readouterr().err
        assert named in err, (args, err)
        assert "SVD did not converge" not in err and "RuntimeWarning" not in err, args
    assert not (tmp_path / "nonfinite").exists()


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


def test_numerical_errors_exit_3(tmp_path, capsys):
    # fast diagonal block is exactly zero: the sensitivity solve must fail
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(
        {"dims": [1, 1], "blocks": [[[[-1.0]], [[1.0]]], [[[1.0]], [[0.0]]]]}))
    code = run(["stability", "--stack-file", str(path), "--scheme", "predsens",
                "--point", "0,0", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    # not raised by a run, so no time
    assert capsys.readouterr().err.startswith("numerical error: matrix at subsystem 1 ")


@pytest.mark.parametrize("config, message", [
    ({"dims": [0, 1], "blocks": R2_CONFIG["blocks"]}, "dims must be positive, got [0, 1]"),
    ({"dims": [1, 1], "blocks": [[[[1.0]]], R2_CONFIG["blocks"][1]]},
     "block row 0 has 1 entries, expected 2"),
    ({**R2_CONFIG, "offsets": [[0.0, 0.0], [0.0]]}, "offset 0 has length 2, expected 1")],
    ids=["zero-dim", "short-row", "long-offset"])
def test_bad_stack_file_exits_2_with_the_library_message(tmp_path, capsys, config, message):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(config))
    assert run(["simulate", "--stack-file", str(path),
                "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"dims": [1, 1], "blocks": 5},
    {"dims": [[1], 1], "blocks": []},
    {**R2_CONFIG, "offsets": 3},
    {**R2_CONFIG, "dims": [1.5, 1]},
    {**R2_CONFIG, "dims": [True, 1]},
    {"dims": [1, 1], "blocks": [[{}, [[0]]], [[[0]], [[-1]]]]}],
    ids=["scalar-blocks", "nested-dim", "scalar-offsets", "fractional-dim", "bool-dim",
         "object-block"])
def test_malformed_stack_file_exits_2(tmp_path, capsys, config):
    """A stack file with the right keys but a wrong nesting, a dimension
    that is not an integer or a block that is not numbers is refused by
    ``linear_stack``: exit 2, never a traceback, and no output directory."""
    with pytest.raises(ps.StackDefinitionError):
        parse_linear_stack(config)
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(config))
    assert run(["simulate", "--stack-file", str(path),
                "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["simulate"], ["stability", "--point", "0,0"]],
                         ids=["simulate", "stability"])
def test_null_block_stack_file_exits_2(tmp_path, capsys, command):
    """A ``null`` block entry, which numpy reads as NaN, is refused by
    ``linear_stack``: exit 2 and no output directory, not a numerical error."""
    path = tmp_path / "stack.json"
    path.write_text('{"dims": [1, 1], "blocks": [[null, [[0]]], [[[0]], [[-1]]]]}')
    assert run([*command, "--stack-file", str(path),
                "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: block (0,0) has a null or non-finite entry\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["simulate", "--scheme", "singular:1,0.5,0.5"], "scheme has 3 epsilons for 2 subsystems"),
    (["simulate", "--scheme", "precond:1,2,3"], "scheme has 3 gains for 2 subsystems"),
    # compiled before the point is checked: (1, 1) is not a steady state of r2
    (["stability", "--scheme", "precond:1,2,3", "--point", "1,1"],
     "scheme has 3 gains for 2 subsystems")],
    ids=["simulate-singular", "simulate-precond", "stability-precond"])
def test_scheme_arity_is_a_config_error(tmp_path, capsys, args, message):
    assert run([*args, "--stack", "r2", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, prefix", [
    # an overflowing affine field is refused before the first step
    (["simulate", "--stack-file", "OVERFLOW"], "numerical error at t=0: "),
    # the fast block turns singular in the second step
    (["simulate", "--stack", "bilevel-example", "--scheme", "predsens",
      "--x0=-0.406,0.449", "--dt", "0.25", "--t-end", "20"], "numerical error at t=0.25: ")],
    ids=["overflow", "singular-mid-run"])
def test_numerical_error_names_the_run_time(tmp_path, capsys, args, prefix):
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(
        {"dims": [1, 1], "blocks": [[[[1e200]], [[0]]], [[[0]], [[-1]]]]}))
    args = [str(overflow) if a == "OVERFLOW" else a for a in args]
    assert run([*args, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(prefix)
    assert not (tmp_path / "out").exists()


def test_affine_field_error_names_no_stage_point(tmp_path, capsys):
    """The overflowing affine field is refused at t=0 without printing the
    RK4 stage point it was called at, which is not a state of the run."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(
        {"dims": [1, 1], "blocks": [[[[1e200]], [[0]]], [[[0]], [[-1]]]]}))
    assert run(["simulate", "--stack-file", str(path),
                "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical error at t=0: conditioned field is non-finite\n"


def test_scheme_grammar_epsilon_forms(r2_stack):
    full = parse_scheme("singular:1,0.5", r2_stack, np.zeros(2))
    implied = parse_scheme("singular:0.5", r2_stack, np.zeros(2))
    assert full.epsilons == implied.epsilons == (1.0, 0.5)
    approx = parse_scheme("approx:frozen", r2_stack, np.zeros(2))
    assert isinstance(approx, ps.ApproximateSensitivity)
    noisy = parse_scheme("approx:noise:0.1", r2_stack, np.zeros(2))
    assert isinstance(noisy, ps.ApproximateSensitivity)
    precond = parse_scheme("precond:2,3", r2_stack, np.zeros(2))
    assert precond.gains == (2.0, 3.0)


@pytest.mark.parametrize("scheme, message", [
    ("predsens:1,2", "unknown scheme 'predsens:1,2'"),
    ("plain:junk", "unknown scheme 'plain:junk'"),
    ("approx:frozen:junk", "unknown approx variant 'frozen:junk'"),
    ("approx:noise", "approx:noise needs a sigma, as in approx:noise:0.05"),
    ("approx:noise:", "approx:noise needs a sigma, as in approx:noise:0.05")],
    ids=["predsens-args", "plain-args", "frozen-args", "noise-no-sigma", "noise-empty-sigma"])
def test_scheme_token_with_trailing_text_exits_2(tmp_path, capsys, scheme, message):
    """``plain``, ``predsens`` and ``approx:frozen`` are exact tokens and a
    noise scale must be given: nothing after a token is silently dropped."""
    assert run(["simulate", "--stack", "bilevel-example", "--x0", "0.3,0.31",
                "--dt", "0.04", "--t-end", "0.4", "--scheme", scheme,
                "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_stability_of_a_stack_file_needs_a_point(tmp_path, capsys):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(R2_CONFIG))
    assert run(["stability", "--stack-file", str(path),
                "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: custom stacks need an explicit --point\n"
    assert not (tmp_path / "out").exists()


def test_bilevel_defaults_are_the_library_defaults(tmp_path):
    """Without --x0, --iters or --tol, ``bilevel`` runs ``solve_discrete`` at
    its own defaults from the registry's start for ``bilevel-example``."""
    assert run(["bilevel", "--out", str(tmp_path / "cli")]) == EXIT_OK
    log = ps.solve_discrete(cs.bilevel_example_problem(), "ps", 0.25,
                            registry.default_x0("bilevel-example"))
    log.to_csv(tmp_path / "lib.csv")
    assert (tmp_path / "cli" / "iterates.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("args, message", [
    (["stability", "--stack", "r2", "--scheme", "precond:1,,2"],
     "could not parse gains from '1,,2'"),
    (["stability", "--stack", "r2", "--scheme", "precond:1,2,"],
     "could not parse gains from '1,2,'"),
    (["stability", "--stack", "r2", "--scheme", "singular:,0.5"],
     "could not parse epsilons from ',0.5'"),
    (["stability", "--stack", "r2", "--point", "0,,0"], "could not parse --point from '0,,0'"),
    (["stability", "--stack", "r2", "--point", ""], "could not parse --point from ''"),
    (["bilevel", "--x0", "0.4,,0.4"], "could not parse --x0 from '0.4,,0.4'"),
    (["simulate", "--stack", "r2", "--x0", ""], "could not parse --x0 from ''"),
    (["simulate", "--stack-file", "OFFSET_TYPO"],
     "linear stack JSON has unknown keys ['offset']; expected dims, blocks and offsets"),
    (["stability", "--stack", "r2", "--tol", "-1"], "tol must be nonnegative, got -1.0"),
    (["simulate", "--stack", "r2", "--scheme", "approx:noise:-0"],
     "sigma must be nonnegative and finite, got -0.0"),
    (["bilevel", "--tol", "-1", "--iters", "5"], "tol must be nonnegative, got -1.0"),
    (["bilevel", "--method", "ps", "--eps", "0.5", "--iters", "5"], "ps takes no eps, got 0.5")],
    ids=["empty-gain", "trailing-comma", "empty-epsilon", "empty-point-entry", "empty-point",
         "empty-x0-entry", "empty-x0", "unknown-stack-key", "negative-tol", "negative-zero-sigma",
         "bilevel-negative-tol", "bilevel-ps-eps"])
def test_input_that_would_be_misread_exits_2(tmp_path, capsys, args, message):
    """Every number typed is read or refused: an empty list entry, an empty
    ``--x0`` or ``--point``, an unknown stack-file key, a negative ``tol``, a
    sigma of -0 and an ``--eps`` under ``ps`` exit 2 with one stderr line and
    no output directory."""
    typo = tmp_path / "offset.json"
    typo.write_text(json.dumps({**R2_CONFIG, "offset": [[0.25], [-1.5]]}))
    args = [str(typo) if a == "OFFSET_TYPO" else a for a in args]
    assert run([*args, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_grid_over_the_byte_cap_exits_2(tmp_path, capsys):
    """A grid of 1e300 steps is refused before it is reserved or stepped."""
    assert run(["simulate", "--stack", "r2", "--dt", "1e-300", "--t-end", "1",
                "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: a grid of 1e+300 rows of 2 states is over MAX_STATE_BYTES")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
