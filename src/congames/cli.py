"""Command-line experiment harness.

Loads or generates a game, runs one of the four dynamics, writes the
trajectory CSV, prints a one-line summary per assertion, and exits nonzero
iff an enabled theorem assertion failed.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bandit import entropy_preset, euclidean_preset, mixed_delta_gap, run_bandit
from .bregman import ConfigurationError
from .bulletin import BulletinConfig, run_bulletin
from .checks import (
    average_ratio_bound,
    bandit_checks,
    bulletin_checks,
    certified_ratio,
    ratio_checks,
    sigma_targets,
)
from .game import CongestionGame
from .gamefile import parse_game
from .generator import generate_random_game
from .minimize import CertifiedMinimum, min_average_cost, min_max_cost, reference_minimizer

log = logging.getLogger("congames")

_ENUM_CSV_CAP = 10_000
_MC_SAMPLES = 20_000


def _setup_logging() -> None:
    level = os.environ.get("CONGESTION_LOG_LEVEL", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigurationError(
            f"CONGESTION_LOG_LEVEL must be one of {sorted(levels)}, got {level!r}"
        )
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def _check_flags(args: argparse.Namespace) -> None:
    """Reject flags the algorithm ignores and out-of-range values argparse lets through."""
    if args.algo.startswith("bandit"):
        ignored = {"--eps": args.eps, "--sigma": args.sigma, "--steps": args.steps}
    else:
        ignored = {"--episodes": args.episodes, "--lambda-cap": args.lambda_cap, "--nu": args.nu}
    for flag, value in ignored.items():
        if value is not None:
            raise ConfigurationError(f"{flag} does not apply to --algo {args.algo}")
    if args.sigma is not None and not 0.0 < args.sigma < math.inf:
        raise ConfigurationError("--sigma must be a positive finite number")
    if args.seed < 0:
        raise ConfigurationError("--seed must be a nonnegative integer")
    for flag, path in (("--game", args.game), ("--out", args.out)):
        if path == "":
            raise ConfigurationError(f"{flag} needs a nonempty path")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: str, columns: dict) -> None:
    """Write the {name: values} columns as CSV rows under their names: integer
    columns as %d, the others as %.12g, the text `_fmt` gives for each value."""
    values = [np.asarray(c) for c in columns.values()]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in values)
    lines = [",".join(columns), *(row % line for line in zip(*(c.tolist() for c in values)))]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise _out_error(path, exc) from exc


def _out_error(path: str, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write --out {path}: {exc}")


def _load_game(args: argparse.Namespace) -> CongestionGame:
    """Load the --game file, or generate the game `args.gen` (a `parse_gen_string` dict)
    describes, with seed --seed and generate_random_game's defaults where it is silent."""
    if args.game is not None:
        return parse_game(args.game)
    given = {_GEN_KEYS[key][0]: value for key, value in args.gen.items()}
    return generate_random_game(**{"seed": args.seed} | given)


def _reference(game: CongestionGame) -> CertifiedMinimum:
    """Potential minimizer; warns on stderr when its certificate missed the tolerance."""
    reference = reference_minimizer(game)
    if not reference.converged:
        print(
            f"warning: reference minimizer stopped unconverged after {reference.iterations} "
            f"iterations with certificate {reference.certificate:.3e}; it is added to every phi_gap",
            file=sys.stderr,
        )
    return reference


# Each --gen key: the generate_random_game argument it sets, and what that is for
# error messages; sym and seed are checked apart.
_GEN_KEYS = {
    "n": ("n", "player count"),
    "m": ("m", "edge count"),
    "d": ("d", "path count"),
    "deg": ("degree", "cost degree"),
    "len": ("max_path_len", "path length cap"),
    "sym": ("symmetric", None),
    "seed": ("seed", None),
}


def _check_gen_value(key: str, value: str) -> int:
    """The integer a --gen value gives; rejects one the generator cannot take, naming its key."""
    try:
        number = int(value)
    except ValueError:
        raise ConfigurationError(f"--gen {key}={value}: not an integer") from None
    if key == "sym" and number not in (0, 1):
        raise ConfigurationError(f"--gen sym={value}: sym must be 0 or 1")
    if key == "seed" and number < 0:
        raise ConfigurationError(f"--gen seed={value}: seed must be a nonnegative integer")
    _, what = _GEN_KEYS[key]
    if what and number < 1:
        raise ConfigurationError(f"--gen {key}={value}: {what} must be at least 1")
    return number


def parse_gen_string(text: str) -> dict[str, int]:
    gen: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(f"--gen entries look like key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key not in _GEN_KEYS:
            raise ConfigurationError(f"unknown --gen key {key!r}")
        if key in gen:
            raise ConfigurationError(f"--gen {part}: repeated key")
        gen[key] = _check_gen_value(key, value)
    for key in ("n", "m", "d"):
        if key not in gen:
            raise ConfigurationError(f"--gen needs {key}=")
    return gen


def _run_bulletin_experiment(args: argparse.Namespace, game: CongestionGame) -> int:
    geometry = "euclidean" if args.algo.endswith("gd") else "negative-entropy"
    target = args.eps
    if args.sigma is not None:
        target = min(t for t in sigma_targets(game, args.sigma) if t is not None)
        if target == 0.0:
            raise ConfigurationError(f"--sigma {args.sigma:g} gives a gap target of 0")

    given = {"max_steps": args.steps} if args.steps is not None else {}
    config = BulletinConfig(geometry=geometry, eta=args.eta, target_gap=target, **given)
    config.resolve_etas(game)  # rejects bad flags before the potential is solved
    report = run_bulletin(game, config, reference=_reference(game))
    cert_gaps = report.certified_gaps
    check_ratios = args.sigma is not None and report.stopped_at_target
    # each certified social-cost minimum is solved only when the CSV or a ratio check reads it
    avg_min = min_average_cost(game) if args.out or check_ratios else None
    max_min = min_max_cost(game) if check_ratios and game.symmetric else None

    if args.out:
        _write_csv(args.out, {
            "step": np.arange(len(report.phi)),
            "phi": report.phi,
            "phi_gap": cert_gaps,
            "delta_gap": report.delta_gaps,
            "c_avg": report.avg_costs,
            "c_max": report.max_costs,
            "ratio_avg": certified_ratio(report.avg_costs, avg_min.lower_bound),
            "bound_avg": average_ratio_bound(game, np.maximum(cert_gaps, 0.0)),
        })

    assertions = bulletin_checks(report)
    if check_ratios:
        assertions += ratio_checks(game, report.x_final, args.sigma, avg_min, max_min)
    checks = {check.name: check for check in assertions}
    summary = {
        "algo": args.algo,
        "steps": report.steps,
        "final_phi": float(report.phi[-1]),
        "final_gap": float(cert_gaps[-1]),
        "final_delta_gap": float(report.delta_gaps[-1]),
        "gamma_measured": report.gamma_measured,
        "eta_min": float(report.etas.min()),
    }
    if target is not None:
        summary["target_gap"] = target
        summary["budget"] = checks["convergence-budget"].bound
    if check_ratios:
        summary["ratio_avg"] = checks["average-cost-ratio"].measured
    return _finish(args, summary, assertions)


def _run_bandit_experiment(args: argparse.Namespace, game: CongestionGame) -> int:
    preset = euclidean_preset if args.algo.endswith("gd") else entropy_preset
    given = {"lambda_cap": args.lambda_cap, "nu": args.nu, "episodes": args.episodes}
    config = preset(
        game,
        eta=args.eta,
        seed=args.seed,
        **{key: value for key, value in given.items() if value is not None},
    )
    config.derive(game)  # rejects bad flags before the potential is solved
    report = run_bandit(game, config, reference=_reference(game))
    params = report.params

    if args.out:
        mode = "enumerate" if math.prod(game.sizes) <= _ENUM_CSV_CAP else "monte-carlo"
        deltas = [
            mixed_delta_gap(game, r.profile, mode, _MC_SAMPLES, args.seed * 100_003 + r.tau).delta
            for r in report.records
        ]
        _write_csv(args.out, {
            "episode": [rec.tau for rec in report.records],
            "steps": [rec.steps for rec in report.records],
            "phi": report.phis,
            "phi_gap": report.certified_gaps,
            "max_est_error": report.grad_errors,
            "delta_mixed": deltas,
            "theorem_threshold": np.full(len(deltas), params.threshold),
        })

    summary = {
        "algo": args.algo,
        "episodes": len(report.records),
        "final_phi": float(report.phis[-1]),
        "final_gap": float(report.certified_gaps[-1]),
        "max_est_error": float(report.grad_errors.max()),
        "epsilon": params.epsilon,
        "theta": params.theta,
        "delta": params.delta,
        "threshold": params.threshold,
        "tau0": params.tau0,
        "lambda": config.lam,
    }
    return _finish(args, summary, bandit_checks(report))


def _finish(args: argparse.Namespace, summary: dict, assertions) -> int:
    """Print one line per assertion and the summary; return the exit code."""
    failed = [check.name for check in assertions if not check.ok]
    for check in assertions:
        print(check)
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in summary.items() if not isinstance(v, str))
    print(f"summary: algo={summary['algo']} {pairs}")
    if failed:
        log.info("failed assertions: %s", ", ".join(failed))
    return 1 if (failed and args.enforce) else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="congames",
        description="Mirror-descent dynamics in congestion games: run, record, verify.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--game", metavar="PATH", help="game file to load")
    src.add_argument("--gen", metavar="SPEC", help='generate a game, e.g. "n=4,m=6,d=3,deg=2,sym=1"')
    p.add_argument(
        "--algo",
        required=True,
        choices=["bulletin-gd", "bulletin-mu", "bandit-gd", "bandit-mu"],
    )
    tgt = p.add_mutually_exclusive_group()
    tgt.add_argument("--eps", type=float, help="potential-gap target")
    tgt.add_argument("--sigma", type=float, help="social-cost slack; converted to a gap target")
    p.add_argument("--eta", type=float, help="learning rate (default 1/lambda)")
    p.add_argument("--lambda-cap", dest="lambda_cap", type=float, help="bandit cap on Lambda*d")
    p.add_argument("--nu", type=float, help="bandit episode-length factor")
    lim = p.add_mutually_exclusive_group()
    lim.add_argument("--steps", type=int, help="bulletin step cap")
    lim.add_argument("--episodes", type=int, help="bandit episode count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="trajectory CSV path")
    p.add_argument("--assert", dest="enforce", action="store_true", default=True,
                   help="enable theorem assertions (default)")
    p.add_argument("--no-assert", dest="enforce", action="store_false",
                   help="report only; always exit 0")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        if args.gen is not None:
            args.gen = parse_gen_string(args.gen)
        _check_flags(args)
        if args.out:
            try:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise _out_error(args.out, exc) from exc
        game = _load_game(args)
        log.info(
            "game: n=%d m=%d d=%d k=%d a=%g b=%g symmetric=%s",
            game.n, game.m, game.d, game.k, game.a, game.b, game.symmetric,
        )
        if args.algo.startswith("bulletin"):
            return _run_bulletin_experiment(args, game)
        return _run_bandit_experiment(args, game)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
