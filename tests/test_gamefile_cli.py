import math
import re

import numpy as np
import pytest

import congames.cli
from congames import (
    GameFileError,
    generate_random_game,
    parse_game,
    parse_game_text,
    render_game,
)
from congames.cli import _fmt, _load_game, _write_csv, build_parser, main, parse_gen_string

G1_TEXT = """\
# two parallel edges, one player
players 1
edge slow poly 1
edge fast poly 0.5
path 1 fast
path 1 slow
"""


def test_parse_g1_file(tmp_path):
    path = tmp_path / "g1.game"
    path.write_text(G1_TEXT)
    game = parse_game(path)
    assert (game.n, game.m, game.d, game.k) == (1, 2, 2, 1)
    assert math.isclose(game.a, 0.5) and math.isclose(game.b, 1.0)
    assert game.symmetric


def test_parse_missing_file():
    with pytest.raises(GameFileError, match="cannot read"):
        parse_game("/nonexistent/game.txt")


@pytest.mark.parametrize(
    "text,message",
    [
        ("players 2\nedge a poly 1\npath 1 a\n", "player 2 has no paths"),
        ("players 1\nedge a poly 0.5 -0.1\npath 1 a\n", "negative"),
        ("players 1\nedge a poly 1\npath 1 a a\n", "duplicate edge in path"),
        ("players 1\nedge a poly 1\npath 1 b\n", "unknown edge id"),
        ("players 1\nedge a poly 1\npath 2 a\n", "out of range"),
        ("edge a poly 1\npath 1 a\n", "players"),
        ("players 1\nedge a poly 1\nedge a poly 1\npath 1 a\n", "duplicate edge id"),
        ("players 1\nroad a poly 1\n", "unknown directive"),
        ("players 1\nedge a poly 0.9 0.9\npath 1 a\n", "exceeds 1"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(GameFileError, match=message):
        parse_game_text(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GameFileError, match="line 3"):
        parse_game_text("players 1\nedge a poly 1\nedge b poly nope\npath 1 a\n")


@pytest.mark.parametrize("seed", range(8))
def test_round_trip(seed):
    game = generate_random_game(seed=seed, n=3, m=5, d=3, symmetric=seed % 2 == 0)
    assert parse_game_text(render_game(game)) == game


def test_generator_deterministic():
    a = generate_random_game(seed=5, n=4, m=6, d=3)
    b = generate_random_game(seed=5, n=4, m=6, d=3)
    assert a == b
    assert a != generate_random_game(seed=6, n=4, m=6, d=3)


def test_generator_symmetric_flag():
    game = generate_random_game(seed=4, n=5, m=6, d=3, symmetric=True)
    assert game.symmetric
    assert all(pl == game.paths[0] for pl in game.paths)


def test_generator_games_validate():
    for seed in range(100):
        game = generate_random_game(seed=seed, n=2 + seed % 3, m=4 + seed % 4, d=2 + seed % 3)
        assert game.k <= game.d and game.m_path <= game.m
        for cost in game.edges:
            assert cost.derivative_lower > 0
            assert sum(cost.coefficients) <= 1 + 1e-12


# -- CLI ----------------------------------------------------------------------------


@pytest.fixture()
def g1_path(tmp_path):
    path = tmp_path / "g1.game"
    path.write_text(G1_TEXT)
    return str(path)


def test_cli_bulletin_run(g1_path, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        ["--game", g1_path, "--algo", "bulletin-gd", "--eps", "1e-4", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS] convergence-budget" in text
    assert "[PASS] monotone-descent" in text
    header = out.read_text().splitlines()[0]
    assert header == "step,phi,phi_gap,delta_gap,c_avg,c_max,ratio_avg,bound_avg"


def test_cli_byte_identical_reruns(g1_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--game", g1_path, "--algo", "bulletin-mu", "--eps", "1e-5", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_learning_rate_gate(g1_path, capsys):
    code = main(["--game", g1_path, "--algo", "bulletin-gd", "--eps", "1e-4", "--eta", "2.0"])
    assert code == 2
    assert "learning rate exceeds 1/lambda" in capsys.readouterr().err


def test_cli_sigma_flow(g1_path, capsys):
    code = main(["--game", g1_path, "--algo", "bulletin-gd", "--sigma", "0.25"])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS] average-cost-ratio" in text
    assert "[PASS] maximum-cost-ratio" in text  # G1 is symmetric


def test_cli_skips_max_cost_oracle_when_the_target_is_missed(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("min_max_cost solved for a ratio that is not printed")

    monkeypatch.setattr(congames.cli, "min_max_cost", refuse)
    # a symmetric game 10 steps short of its sigma target
    args = ["--gen", "n=4,m=6,d=3,sym=1", "--algo", "bulletin-gd", "--sigma", "0.25"]
    assert main([*args, "--steps", "10"]) == 1  # the convergence budget fails
    text = capsys.readouterr().out
    assert "[FAIL] convergence-budget" in text
    assert "maximum-cost-ratio" not in text


def test_cli_generated_bandit_run(tmp_path, capsys):
    out = tmp_path / "bandit.csv"
    code = main(
        [
            "--gen", "n=3,m=3,d=3,deg=1",
            "--algo", "bandit-gd",
            "--episodes", "2",
            "--nu", "1",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "episode,steps,phi,phi_gap,max_est_error,delta_mixed,theorem_threshold"
    assert len(lines) == 3


def test_cli_no_assert_masks_failures(g1_path):
    # a step cap far below the convergence time fails the budget assertion
    # unless assertions are disabled
    code = main(["--game", g1_path, "--algo", "bulletin-gd", "--eps", "1e-10", "--steps", "3"])
    assert code == 1
    code = main(
        ["--game", g1_path, "--algo", "bulletin-gd", "--eps", "1e-10", "--steps", "3", "--no-assert"]
    )
    assert code == 0


def test_cli_gen_string_validation():
    with pytest.raises(Exception):
        parse_gen_string("n=2,m=3")  # missing d
    with pytest.raises(Exception):
        parse_gen_string("n=2,m=3,d=2,shape=tree")
    gen = parse_gen_string("n=2,m=3,d=2,deg=2,sym=1")
    assert gen == {"n": 2, "m": 3, "d": 2, "deg": 2, "sym": 1}


@pytest.mark.parametrize(
    "gen, message",
    [
        ("n=x,m=3,d=3", "--gen n=x: not an integer"),
        ("n=3,m=3,d=3,seed=-1", "--gen seed=-1: seed must be a nonnegative integer"),
        ("n=3,m=3,d=3,seed=1.5", "--gen seed=1.5: not an integer"),
        ("n=3,m=3,d=3,sym=7", "--gen sym=7: sym must be 0 or 1"),
        ("n=3,m=3,d=3,sym=yes", "--gen sym=yes: not an integer"),
        ("n=0,m=3,d=3", "--gen n=0: player count must be at least 1"),
        ("n=3,m=3,d=3,deg=0", "--gen deg=0: cost degree must be at least 1"),
        ("n=2,m=3,d=2,n=5", "--gen n=5: repeated key"),
    ],
)
def test_cli_gen_values_checked_per_key(gen, message, capsys):
    assert main(["--gen", gen, "--algo", "bulletin-gd", "--eps", "1e-4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_rejects_bad_log_level(g1_path, monkeypatch, capsys):
    monkeypatch.setenv("CONGESTION_LOG_LEVEL", "loud")
    code = main(["--game", g1_path, "--algo", "bulletin-gd", "--eps", "1e-4"])
    assert code == 2
    assert "CONGESTION_LOG_LEVEL" in capsys.readouterr().err


def test_cli_gen_path_length_cap(capsys):
    assert main(["--gen", "n=2,m=3,d=2,len=2", "--algo", "bulletin-gd", "--eps", "1e-4"]) == 0
    longest = {}
    for cap in ("", ",len=2"):
        namespaces = [
            build_parser().parse_args(["--gen", f"n=2,m=3,d=2,seed={s}{cap}", "--algo", "bulletin-gd"])
            for s in range(6)
        ]
        for args in namespaces:
            args.gen = parse_gen_string(args.gen)
        longest[cap] = max(_load_game(args).m_path for args in namespaces)
    assert longest == {"": 3, ",len=2": 2}
    assert main(["--gen", "n=2,m=3,d=2,len=0", "--algo", "bulletin-gd", "--eps", "1e-4"]) == 2
    assert "path length cap must be at least 1" in capsys.readouterr().err


def test_cli_rejects_zero_episodes(capsys):
    args = ["--gen", "n=3,m=3,d=3,deg=1", "--algo", "bandit-gd", "--episodes", "0"]
    assert main(args) == 2
    assert "error: need at least one episode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eta", "nan"], "error: learning rate must be a finite number"),
        (["--eps", "nan"], "error: target gap must be a positive finite number"),
        (["--sigma", "nan"], "error: --sigma must be a positive finite number"),
        (["--steps", "-1"], "error: step cap must be nonnegative"),
        (["--out", ""], "error: --out needs a nonempty path"),
        (["--game", ""], "error: --game needs a nonempty path"),
    ],
)
def test_cli_rejects_bad_bulletin_flags(g1_path, flags, message, capsys):
    game = [] if "--game" in flags else ["--game", g1_path]
    assert main([*game, "--algo", "bulletin-gd", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "algo, flags",
    [
        ("bandit-gd", ["--eps", "-5"]),
        ("bandit-mu", ["--sigma", "0.25"]),
        ("bandit-gd", ["--steps", "10"]),
        ("bulletin-gd", ["--episodes", "2"]),
        ("bulletin-mu", ["--episodes", "2", "--eps", "1e-4"]),
        ("bulletin-gd", ["--lambda-cap", "99", "--nu", "-7", "--eps", "1e-4"]),
        ("bulletin-mu", ["--nu", "8"]),
    ],
)
def test_cli_rejects_flags_the_algorithm_ignores(algo, flags, capsys):
    assert main(["--gen", "n=3,m=3,d=3,deg=1", "--algo", algo, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flags[0]} does not apply to --algo {algo}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "algo, flags, message",
    [
        ("bandit-gd", ["--nu", "inf"], "error: nu must be a finite number, at least 1"),
        ("bandit-mu", ["--nu", "nan"], "error: nu must be a finite number, at least 1"),
        ("bandit-gd", ["--lambda-cap", "-1"], "error: --lambda-cap must be a positive finite number"),
        ("bandit-mu", ["--lambda-cap", "nan"], "error: --lambda-cap must be a positive finite number"),
    ],
)
def test_cli_rejects_bad_bandit_flags(algo, flags, message, capsys):
    assert main(["--gen", "n=3,m=3,d=3,deg=1", "--algo", algo, "--episodes", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("algo", ["bandit-gd", "bandit-mu"])
def test_cli_bandit_names_a_bad_learning_rate(algo, capsys):
    assert main(["--gen", "n=3,m=3,d=3", "--algo", algo, "--eta", "nan"]) == 2
    assert capsys.readouterr().err == "error: learning rate must be a finite number\n"


def test_cli_warns_on_unconverged_reference(tmp_path, capsys):
    args = ["--algo", "bandit-gd", "--episodes", "1", "--seed", "0"]
    out = tmp_path / "run.csv"
    # the reference minimizer stalls on this game with a certificate near 1e-4
    assert main(["--gen", "n=16,m=8,d=3,seed=302", *args, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "warning: reference minimizer stopped unconverged" in captured.err
    assert re.search(r"certificate \d\.\d{3}e-0[45];", captured.err)
    assert "warning" not in captured.out and "warning" not in out.read_text()
    assert main(["--gen", "n=3,m=3,d=3,deg=1", *args, "--nu", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("algo", ["bulletin-gd", "bandit-gd"])
def test_cli_rejects_out_under_a_file_before_running(algo, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "run.csv"
    args = ["--gen", "n=3,m=3,d=3,deg=1", "--algo", algo, "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --out {out}: [Errno 17] File exists: '{blocker}'\n"
    assert captured.out == ""  # nothing ran


def test_cli_reports_an_unwritable_out_path(tmp_path, capsys):
    args = ["--gen", "n=3,m=3,d=3,deg=1", "--algo", "bandit-gd", "--episodes", "1"]
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write --out {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("algo", ["bulletin-gd", "bandit-mu"])
def test_cli_rejects_negative_seed(algo, capsys):
    assert main(["--gen", "n=3,m=3,d=3,deg=1", "--algo", algo, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be a nonnegative integer\n"
    assert captured.out == ""


def test_csv_rows_format_as_fmt(tmp_path):
    rng = np.random.default_rng(3)
    floats = np.concatenate([
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, 1e-300, 5e-324, 0.1, 2.0 / 3.0],
        rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40),
    ])
    ints = np.arange(len(floats)) * 7 - 3
    out = tmp_path / "t.csv"
    _write_csv(str(out), ["k", "x", "y"], (ints, floats, floats.tolist()))
    expected = ["k,x,y"] + [f"{_fmt(k)},{_fmt(x)},{_fmt(x)}" for k, x in zip(ints, floats)]
    assert out.read_text() == "\n".join(expected) + "\n"
