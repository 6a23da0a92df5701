"""Golden outputs of the bulletin-board dynamics.

The recorded file pins `run_bulletin` bit for bit: the SHA-256 of every
`BulletinReport` array, `steps`, `stopped_at_target` and the hex of
`gamma_measured`, plus the SHA-256 of two bulletin CLI CSVs.  The runs cover
both geometries to a 1e-6 target on the acceptance pool, fixed-step runs on
an n=64 game, recorded profiles, and an explicit start with per-player rates.

The multiplicative-update bits hold only where numpy's float64 exp runs on the
SIMD target they were recorded with, X86_V4 (AVX-512) under numpy 2.4.6.  Its
X86_V3 (AVX2) kernel rounds some inputs differently, so there every `_mu` run,
`profiles`, `x0_eta` and the `bulletin-mu` CSV hash fail while the
gradient-descent runs pass.  pytest's header prints the current target.
Regenerate it only on purpose, from a commit whose outputs are trusted; the
recorder prints every entry that changed, old -> new:

    PYTHONPATH=src python tests/test_bulletin_golden.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from congames import BulletinConfig, generate_random_game, reference_minimizer, run_bulletin
from congames.cli import main
from conftest import exp_dispatch

GOLDEN = Path(__file__).with_name("data") / "bulletin_golden.json"
RECORDED_EXP = "X86_V4"  # numpy's float64 exp target when the file was recorded
ROOT = Path(__file__).resolve().parents[1]

ARRAYS = (
    "etas", "phi", "delta_gaps", "theorem_delta_gaps", "avg_costs", "max_costs",
    "x_final", "cum_unit_costs", "cum_path_costs", "profiles",
)
GEOMETRIES = {"gd": "euclidean", "mu": "negative-entropy"}


def _accept(i: int):
    return generate_random_game(seed=100 + i, n=(2, 4, 8)[i % 3], m=3 + i % 6, d=2 + i % 3)


def _large():
    return generate_random_game(seed=12, n=64, m=30, d=8, degree=3)


def _small():
    return generate_random_game(seed=43, n=4, m=5, d=3)


def _x0_eta_config() -> BulletinConfig:
    game = _small()
    rng = np.random.default_rng(43)
    x0 = np.concatenate([rng.dirichlet(np.ones(sz)) / game.n for sz in game.sizes])
    lam = game.smoothness_params().lam
    etas = rng.uniform(0.3 / lam, 1.0 / lam, size=game.n)
    return BulletinConfig(geometry="negative-entropy", eta=etas, x0=x0, target_gap=1e-7,
                          max_steps=5_000)


# name -> (game factory, config factory).  Multiplicative updates run on the
# acceptance games with n <= 4 only, as in the benchmark's bulletin workload.
RUNS = {
    **{
        f"accept_{i}_{g}": (
            lambda i=i: _accept(i),
            lambda geo=geo: BulletinConfig(geometry=geo, target_gap=1e-6, max_steps=100_000),
        )
        for i in range(20)
        for g, geo in GEOMETRIES.items()
        if g == "gd" or (2, 4, 8)[i % 3] <= 4
    },
    **{
        f"large_{g}": (_large, lambda geo=geo: BulletinConfig(geometry=geo, max_steps=200))
        for g, geo in GEOMETRIES.items()
    },
    "profiles": (
        _small,
        lambda: BulletinConfig(geometry="negative-entropy", target_gap=1e-5, max_steps=2_000,
                               record_profiles=True),
    ),
    "x0_eta": (_small, _x0_eta_config),
}

CLI_RUNS = (
    "--gen n=12,m=12,d=6,deg=2,sym=1,seed=202 --algo bulletin-mu --sigma 0.25",
    "--game games/two_routes.game --algo bulletin-gd --eps 1e-6",
)


@lru_cache(maxsize=None)
def _game_and_reference(make):
    game = make()
    return game, reference_minimizer(game)


def _record(name: str) -> dict:
    make, config = RUNS[name]
    game, ref = _game_and_reference(make)
    rep = run_bulletin(game, config(), reference=ref)
    record = {
        "steps": rep.steps,
        "stopped_at_target": bool(rep.stopped_at_target),
        "gamma_measured": float(rep.gamma_measured).hex(),
    }
    for field in ARRAYS:
        value = getattr(rep, field)
        record[field] = (
            None if value is None
            else hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        )
    return record


def _cli_sha(args: str, tmp: Path) -> str:
    out = tmp / "run.csv"
    argv = [str(ROOT / a) if a.startswith("games/") else a for a in args.split()]
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(golden, name):
    assert _record(name) == golden["runs"][name], _dispatch_note()


@pytest.mark.parametrize("args", CLI_RUNS)
def test_cli_bulletin_csv_bytes(golden, args, tmp_path, capsys):
    assert _cli_sha(args, tmp_path) == golden["cli_sha256"][args], _dispatch_note()


def _dispatch_note() -> str:
    return f"recorded with float64 exp on {RECORDED_EXP}; this run's exp: {exp_dispatch()}"


if __name__ == "__main__":
    import tempfile

    from golden import write_golden

    with tempfile.TemporaryDirectory() as tmp:
        cli = {args: _cli_sha(args, Path(tmp)) for args in CLI_RUNS}
    write_golden(GOLDEN, {"runs": {name: _record(name) for name in RUNS}, "cli_sha256": cli})
