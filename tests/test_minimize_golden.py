"""Golden outputs of the Frank-Wolfe oracles.

The recorded file pins `reference_minimizer` and `min_average_cost` bit for
bit: the hex of `value` and `certificate`, `iterations`, `converged` and the
SHA-256 of the `flat` bytes.  The CLI writes `phi_gap = phi - value +
certificate` and perfbench compares those rows to 1e-9 relative on values
near 1e-6, so any change of the oracle's arithmetic order shows here first.
Regenerate it only on purpose, from a commit whose outputs are trusted; the
recorder prints every entry that changed, old -> new:

    PYTHONPATH=src python tests/test_minimize_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from congames import (
    generate_random_game,
    min_average_cost,
    parallel_links_game,
    reference_minimizer,
)

GOLDEN = Path(__file__).with_name("data") / "minimize_golden.json"

# name -> game factory.  The oracle pool of the benchmark (not relabelled),
# the acceptance pool, the links game, a symmetric game whose vertex scores
# can tie, and the n=16 game on which the reference minimizer stalls.
_ORACLE_POOL = [(32, 20, 6, 0), (32, 20, 6, 1), (32, 20, 6, 3), (64, 30, 8, 12)]
GAMES = {
    **{
        f"oracle_n{n}_s{s}": (
            lambda n=n, m=m, d=d, s=s: generate_random_game(seed=s, n=n, m=m, d=d, degree=3)
        )
        for n, m, d, s in _ORACLE_POOL
    },
    **{
        f"accept_{i}": (
            lambda i=i: generate_random_game(
                seed=100 + i, n=(2, 4, 8)[i % 3], m=3 + i % 6, d=2 + i % 3
            )
        )
        for i in range(20)
    },
    "links": lambda: parallel_links_game(10, [[1.0]] * 10),
    "sym_n12_s202": lambda: generate_random_game(
        seed=202, n=12, m=12, d=6, degree=2, symmetric=True
    ),
    "stall_n16_s302": lambda: generate_random_game(seed=302, n=16, m=8, d=3),
}
ORACLES = {"reference_minimizer": reference_minimizer, "min_average_cost": min_average_cost}


def _record(name: str, oracle: str) -> dict:
    res = ORACLES[oracle](GAMES[name]())
    return {
        "value": float(res.value).hex(),
        "certificate": float(res.certificate).hex(),
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "flat_sha256": hashlib.sha256(res.flat.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(GAMES))
def test_oracle_matches_golden(golden, name, oracle):
    assert _record(name, oracle) == golden[name][oracle]


if __name__ == "__main__":
    from golden import write_golden

    write_golden(GOLDEN, {name: {o: _record(name, o) for o in ORACLES} for name in GAMES})
