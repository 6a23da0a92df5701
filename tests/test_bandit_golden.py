"""Golden outputs of the bandit sampler and episode kernel.

The recorded file pins the determinism contract: one spawned PCG64 stream per
player, picks equal to the inverse CDF of the frozen strategy, and
byte-identical CLI CSVs for the same flags and seed.  Regenerate it only on
purpose, from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_bandit_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from congames import (
    euclidean_preset,
    generate_random_game,
    mixed_delta_gap,
    parallel_links_game,
    reference_minimizer,
    run_bandit,
)
from congames.cli import main

GOLDEN = Path(__file__).with_name("data") / "bandit_golden.json"

# name -> (game, preset keyword arguments, relative tolerance on cost sums).
# Single-edge paths sum each own cost from one edge, so their sums are exact;
# 3-edge paths may add their edge costs in another order.
RUNS = {
    "links": (lambda: parallel_links_game(10, [[1.0]] * 10), {"nu": 1.0}, 0.0),
    "gen302": (lambda: generate_random_game(n=16, m=8, d=3, seed=302), {}, 1e-13),
}
SEEDS = (0, 1)

CLI_RUNS = (
    "--gen n=6,m=6,d=3 --algo bandit-gd --seed 0",
    "--gen n=16,m=8,d=3,seed=302 --algo bandit-gd --episodes 8 --seed 0",
    "--gen n=9,m=8,d=3,seed=303 --algo bandit-mu --episodes 8 --seed 0",
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _episodes(name: str, seed: int) -> list[dict]:
    make, kwargs, _ = RUNS[name]
    game = make()
    cfg = euclidean_preset(game, episodes=2, seed=seed, record_choices=True, **kwargs)
    rep = run_bandit(game, cfg, reference=reference_minimizer(game))
    return [
        {
            "steps": r.steps,
            "visits": [int(v) for v in r.visits],
            "cost_sums": _hex(r.cost_sums),
            "log_sha256": hashlib.sha256(np.ascontiguousarray(log).tobytes()).hexdigest(),
            "log_dtype": str(log.dtype),
        }
        for r, log in zip(rep.records, rep.choices)
    ]


def _monte_carlo() -> dict:
    game = generate_random_game(n=16, m=8, d=3, seed=302)
    rng = np.random.default_rng(11)
    flat = np.concatenate([rng.dirichlet(np.ones(sz)) / game.n for sz in game.sizes])
    res = mixed_delta_gap(game, flat, mode="monte-carlo", samples=40_000, seed=13)
    return {"delta": float(res.delta).hex(), "expected_costs": _hex(res.expected_costs)}


def _cli_sha(args: str, tmp: Path) -> str:
    out = tmp / "run.csv"
    assert main(args.split() + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_episode_outputs_match_golden(golden, name, seed):
    rtol = RUNS[name][2]
    want = golden["episodes"][name][str(seed)]
    got = _episodes(name, seed)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g["steps"] == w["steps"]
        assert g["visits"] == w["visits"]
        assert g["log_dtype"] == w["log_dtype"]
        assert g["log_sha256"] == w["log_sha256"]
        sums = np.array([float.fromhex(v) for v in g["cost_sums"]])
        ref = np.array([float.fromhex(v) for v in w["cost_sums"]])
        if rtol == 0.0:
            assert g["cost_sums"] == w["cost_sums"]
        else:
            assert np.all(np.abs(sums - ref) <= rtol * np.abs(ref))


def test_monte_carlo_mixed_gap_matches_golden(golden):
    assert _monte_carlo() == golden["monte_carlo"]


@pytest.mark.parametrize("args", CLI_RUNS)
def test_cli_bandit_csv_bytes(golden, args, tmp_path, capsys):
    assert _cli_sha(args, tmp_path) == golden["cli_sha256"][args]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cli = {args: _cli_sha(args, Path(tmp)) for args in CLI_RUNS}
    record = {
        "episodes": {name: {str(s): _episodes(name, s) for s in SEEDS} for name in RUNS},
        "monte_carlo": _monte_carlo(),
        "cli_sha256": cli,
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
