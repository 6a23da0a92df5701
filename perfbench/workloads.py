"""The four benchmark workloads: inputs, one timed round, and output checks.

Each workload builds its inputs from a variant number and runs a fixed
amount of work per round.  There are two variants, both with recorded
outputs in reference.json: the default inputs (variant 0), which every seed
but one selects, and the held-out inputs (variant HELD_OUT_SEED), selected by
that seed alone.  Repeated runs therefore see the same inputs, and their
spread is the machine's alone.

The variants relabel fixed base games: edges, players and each player's paths
are permuted.  A relabelled game is the same game, so the held-out variant
does nearly the same work (random games of one size differ by 30x in
Frank-Wolfe time); floating-point summation order still changes, and with
it a few iteration counts, which is why outputs are recorded per variant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import congames as cg
import congames.cli

DEFAULT_SEED = 0
# Not used while a change is written, so a claim can be re-checked on inputs
# its author never tuned against.
HELD_OUT_SEED = 15
RECORDED_VARIANTS = (DEFAULT_SEED, HELD_OUT_SEED)


def variant_of(seed: int) -> int:
    """The inputs a workload seed selects: the held-out ones or the default ones."""
    return HELD_OUT_SEED if seed == HELD_OUT_SEED else DEFAULT_SEED

CERT_TOL = 1e-10
ASCENT_TOL = 1e-10
REL_TOL = 1e-9


def relabel(game, rng: np.random.Generator):
    """The same game with edges, players and each player's paths permuted."""
    eperm = rng.permutation(game.m)
    edges = [None] * game.m
    for e, cost in enumerate(game.edges):
        edges[eperm[e]] = cost
    paths = []
    for i in rng.permutation(game.n):
        own = [frozenset(int(eperm[e]) for e in s) for s in game.paths[i]]
        paths.append(tuple(own[j] for j in rng.permutation(len(own))))
    return cg.CongestionGame(n=game.n, edges=tuple(edges), paths=tuple(paths))


def _recorded(recorded, i: int, out: dict, *keys: str):
    """The recorded output matching item i on `keys`, or None."""
    rec = recorded[i] if recorded and i < len(recorded) else None
    if rec is None or any(rec[k] != out[k] for k in keys):
        return None
    return rec


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15


class Checks:
    """Collects one verdict per item; an item fails if any of its checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def item(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


# -- oracle ------------------------------------------------------------------

# (n, m, d, generator seed).  n=32 seed 1 is the ROADMAP's 1,773-iteration
# instance; n=64 seed 12 is a large game that converges in ~600 iterations.
ORACLE_POOL = [(32, 20, 6, 0), (32, 20, 6, 1), (32, 20, 6, 3), (64, 30, 8, 12)]


class Oracle:
    name = "oracle"
    calibration = "small"  # speed.py kernel of the same character

    def setup(self, variant: int, out_dir: Path):
        rng = np.random.default_rng([variant, 1])
        return [
            relabel(cg.generate_random_game(seed=s, n=n, m=m, d=d, degree=3), rng)
            for n, m, d, s in ORACLE_POOL
        ]

    def round(self, games):
        raw = []
        for game, (n, _, _, s) in zip(games, ORACLE_POOL):
            raw.append((f"n{n}s{s}", "reference_minimizer", cg.reference_minimizer(game)))
            raw.append((f"n{n}s{s}", "min_average_cost", cg.min_average_cost(game)))
        return raw

    def outputs(self, games, raw):
        return [
            {"game": label, "oracle": fn, "value": r.value, "certificate": r.certificate,
             "iterations": r.iterations, "converged": bool(r.converged)}
            for label, fn, r in raw
        ]

    def check(self, outs, recorded, checks: Checks) -> dict:
        for i, o in enumerate(outs):
            problems = []
            if o["certificate"] > CERT_TOL:
                problems.append(f"certificate {o['certificate']:.3e} > {CERT_TOL:g}")
            if not o["converged"]:
                problems.append("not converged")
            rec = _recorded(recorded, i, o, "game", "oracle")
            if rec is None:
                problems.append("no recorded output")
            elif abs(o["value"] - rec["value"]) > max(o["certificate"], rec["certificate"]) + 1e-15:
                problems.append(f"value {o['value']!r} vs recorded {rec['value']!r}")
            checks.item(f"{o['game']}/{o['oracle']}", problems)
        return {}


# -- bulletin ----------------------------------------------------------------

# The acceptance pool of tests/test_acceptance.py: seed 100+i, n in {2,4,8}.
ACCEPT_POOL = [(100 + i, (2, 4, 8)[i % 3], 3 + i % 6, 2 + i % 3) for i in range(20)]
BULLETIN_TARGET = 1e-6
BULLETIN_CAP = 100_000
# Multiplicative updates need 77k of the pool's 113k steps on the six n=8
# games; they run under gradient descent only, to keep a round near 5 s.
MU_MAX_N = 4
LARGE_GAME = (64, 30, 8, 12)
LARGE_STEPS = 1500


class Bulletin:
    name = "bulletin"
    calibration = "small"  # speed.py kernel of the same character

    def setup(self, variant: int, out_dir: Path):
        rng = np.random.default_rng([variant, 2])
        pool = [
            relabel(cg.generate_random_game(seed=s, n=n, m=m, d=d), rng)
            for s, n, m, d in ACCEPT_POOL
        ]
        n, m, d, s = LARGE_GAME
        large = relabel(cg.generate_random_game(seed=s, n=n, m=m, d=d, degree=3), rng)
        return [(g, cg.reference_minimizer(g)) for g in pool], (large, cg.reference_minimizer(large))

    def round(self, state):
        pool, (large, large_ref) = state
        runs = []
        for idx, (game, ref) in enumerate(pool):
            for geometry in ("euclidean", "negative-entropy"):
                if geometry == "negative-entropy" and game.n > MU_MAX_N:
                    continue
                cfg = cg.BulletinConfig(geometry=geometry, target_gap=BULLETIN_TARGET,
                                        max_steps=BULLETIN_CAP)
                runs.append((f"pool{idx}", geometry, cg.run_bulletin(game, cfg, reference=ref)))
        for geometry in ("euclidean", "negative-entropy"):
            cfg = cg.BulletinConfig(geometry=geometry, max_steps=LARGE_STEPS)
            runs.append(("large", geometry, cg.run_bulletin(large, cfg, reference=large_ref)))
        return runs

    def outputs(self, state, raw):
        return [
            {"game": label, "geometry": geometry, "steps": rep.steps,
             "targeted": rep.target_gap is not None, "stopped": bool(rep.stopped_at_target),
             "max_ascent": rep.max_ascent, "final_phi": float(rep.phi[-1])}
            for label, geometry, rep in raw
        ]

    def check(self, outs, recorded, checks: Checks) -> dict:
        for i, o in enumerate(outs):
            problems = []
            if o["targeted"] and not o["stopped"]:
                problems.append(f"target not reached within {BULLETIN_CAP} steps")
            if not o["targeted"] and o["steps"] != LARGE_STEPS:
                problems.append(f"{o['steps']} steps, expected {LARGE_STEPS}")
            if o["max_ascent"] > ASCENT_TOL:
                problems.append(f"max ascent {o['max_ascent']:.3e} > {ASCENT_TOL:g}")
            rec = _recorded(recorded, i, o, "game", "geometry")
            if rec is None:
                problems.append("no recorded output")
            else:
                if o["steps"] != rec["steps"]:
                    problems.append(f"{o['steps']} steps vs recorded {rec['steps']}")
                if not _close(o["final_phi"], rec["final_phi"]):
                    problems.append(f"final phi {o['final_phi']!r} vs {rec['final_phi']!r}")
            checks.item(f"{o['game']}/{o['geometry']}", problems)
        return {}


# -- bandit ------------------------------------------------------------------

BANDIT_EPISODES = 2
BANDIT_SEEDS_PER_ROUND = 2


class Bandit:
    name = "bandit"
    calibration = "large"  # speed.py kernel of the same character

    def setup(self, variant: int, out_dir: Path):
        game = cg.parallel_links_game(10, [[1.0]] * 10)
        seeds = [BANDIT_SEEDS_PER_ROUND * variant + j for j in range(BANDIT_SEEDS_PER_ROUND)]
        return game, cg.reference_minimizer(game), seeds

    def round(self, state):
        game, ref, seeds = state
        return [
            (seed, cg.run_bandit(
                game, cg.euclidean_preset(game, episodes=BANDIT_EPISODES, seed=seed),
                reference=ref))
            for seed in seeds
        ]

    def outputs(self, state, raw):
        game = state[0]
        outs = []
        for seed, rep in raw:
            floor = rep.config.lam / game.n
            for r in rep.records:
                sums = [int(r.visits[game.player_slice(i)].sum()) for i in range(game.n)]
                outs.append({
                    "seed": seed, "episode": r.tau, "steps": r.steps,
                    "player_visit_sums": sums,
                    "floor_slack": float((r.profile - floor).min()),
                    "visits": [int(v) for v in r.visits],
                })
        return outs

    def check(self, outs, recorded, checks: Checks) -> dict:
        for i, o in enumerate(outs):
            problems = []
            if any(s != o["steps"] for s in o["player_visit_sums"]):
                problems.append(f"visit sums {o['player_visit_sums']} != {o['steps']} steps")
            if o["floor_slack"] < -1e-12:
                problems.append(f"profile below the floor by {-o['floor_slack']:.3e}")
            rec = _recorded(recorded, i, o, "seed", "episode")
            if rec is None:
                problems.append("no recorded output")
            elif o["visits"] != rec["visits"] or o["steps"] != rec["steps"]:
                problems.append("visits differ from the recorded ones")
            checks.item(f"seed{o['seed']}/episode{o['episode']}", problems)
        return {}


# -- cli ---------------------------------------------------------------------

CLI_FILE_GAME = (24, 16, 5, 7)  # (n, m, d, generator seed), rendered to a game file


def _csv_summary(path: Path) -> dict:
    data = path.read_bytes()
    rows = [line.split(",") for line in data.decode().splitlines()]
    values = np.array([[float(v) if v else math.nan for v in row] for row in rows[1:]])
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "header": rows[0],
        "rows": len(rows) - 1,
        "first": values[0].tolist(),
        "last": values[-1].tolist(),
        "sums": np.nansum(values, axis=0).tolist(),
    }


class Cli:
    name = "cli"
    calibration = "small"  # speed.py kernel of the same character

    def setup(self, variant: int, out_dir: Path):
        rng = np.random.default_rng([variant, 4])
        run_dir = out_dir / f"cli-v{variant}"
        run_dir.mkdir(parents=True, exist_ok=True)
        n, m, d, s = CLI_FILE_GAME
        game_path = run_dir / "relabelled.game"
        game_path.write_text(cg.render_game(relabel(
            cg.generate_random_game(seed=s, n=n, m=m, d=d), rng)))
        seed = str(variant)
        script = [
            ("bulletin-mu-sigma", ["--gen", "n=12,m=12,d=6,deg=2,sym=1,seed=202",
                                   "--algo", "bulletin-mu", "--sigma", "0.25", "--seed", seed]),
            ("bandit-mu-enum", ["--gen", "n=9,m=8,d=3,seed=303", "--algo", "bandit-mu",
                                "--episodes", "8", "--seed", seed]),
            ("bandit-gd-mc", ["--gen", "n=16,m=8,d=3,seed=302", "--algo", "bandit-gd",
                              "--episodes", "8", "--seed", seed]),
            ("game-file-gd", ["--game", str(game_path), "--algo", "bulletin-gd",
                              "--eps", "1e-6"]),
        ]
        return [(label, argv + ["--out", str(run_dir / f"{label}.csv")], run_dir / f"{label}.csv")
                for label, argv in script]

    def round(self, script):
        runs = []
        for label, argv, csv in script:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = congames.cli.main(argv)
            runs.append((label, code, buf.getvalue()))
        return runs

    def outputs(self, script, raw):
        outs = []
        for (label, code, stdout), (_, _, csv) in zip(raw, script):
            asserts = [line for line in stdout.splitlines() if line.startswith("[")]
            outs.append({"run": label, "exit": code, "assertions": asserts,
                         "csv": _csv_summary(csv) if csv.exists() else None})
        return outs

    def check(self, outs, recorded, checks: Checks) -> dict:
        csv_bytes = csv_changed = 0
        for i, o in enumerate(outs):
            problems = []
            if o["exit"] != 0:
                problems.append(f"exit code {o['exit']}")
            if not o["assertions"] or any(not a.startswith("[PASS]") for a in o["assertions"]):
                problems.append(f"assertions {o['assertions']}")
            rec = _recorded(recorded, i, o, "run")
            csv = o["csv"]
            if csv is None:
                problems.append("no CSV written")
            elif rec is None or rec["csv"] is None:
                csv_bytes += csv["bytes"]
                problems.append("no recorded output")
            else:
                csv_bytes += csv["bytes"]
                want = rec["csv"]
                if csv["sha256"] != want["sha256"]:
                    csv_changed += 1
                if csv["header"] != want["header"] or csv["rows"] != want["rows"]:
                    problems.append(f"CSV shape {csv['rows']} rows vs recorded {want['rows']}")
                else:
                    for key in ("first", "last", "sums"):
                        bad = [j for j, (a, b) in enumerate(zip(csv[key], want[key]))
                               if not (math.isnan(a) and math.isnan(b)) and not _close(a, b)]
                        if bad:
                            problems.append(f"CSV {key} differs in columns {bad}")
            checks.item(o["run"], problems)
        return {"csv_bytes": csv_bytes, "csv_changed": csv_changed}


WORKLOADS = {w.name: w for w in (Oracle(), Bulletin(), Bandit(), Cli())}
