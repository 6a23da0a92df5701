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
from .bulletin import (
    BulletinConfig,
    average_cost_ratio,
    average_ratio_bound,
    equilibrium_gap_bound,
    max_cost_ratio,
    max_ratio_bound,
    run_bulletin,
)
from .game import CongestionGame
from .gamefile import GameFileError, parse_game
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
    if args.lambda_cap is not None and not 0.0 < args.lambda_cap < math.inf:
        raise ConfigurationError("--lambda-cap must be a positive finite number")
    if args.seed < 0:
        raise ConfigurationError("--seed must be a nonnegative integer")
    for flag, path in (("--game", args.game), ("--out", args.out)):
        if path == "":
            raise ConfigurationError(f"{flag} needs a nonempty path")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write the columns as CSV rows: integer columns as %d, the others as %.12g,
    the text `_fmt` gives for each value."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in columns)
    lines = [",".join(header), *(row % values for values in zip(*(c.tolist() for c in columns)))]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise _out_error(path, exc) from exc


def _out_error(path: str, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write --out {path}: {exc}")


def _load_game(args: argparse.Namespace) -> CongestionGame:
    """Load the --game file, or generate the game `args.gen` (a `parse_gen_string` dict) describes."""
    if args.game is not None:
        return parse_game(args.game)
    gen = args.gen
    return generate_random_game(
        seed=gen.get("seed", args.seed),
        n=gen["n"],
        m=gen["m"],
        d=gen["d"],
        degree=gen.get("deg", 3),
        symmetric=bool(gen.get("sym", 0)),
        max_path_len=gen.get("len"),
    )


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


# What each --gen key sets, for error messages; sym and seed are checked apart.
_GEN_KEYS = {
    "n": "player count",
    "m": "edge count",
    "d": "path count",
    "deg": "cost degree",
    "len": "path length cap",
    "sym": None,
    "seed": None,
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
    if _GEN_KEYS[key] and number < 1:
        raise ConfigurationError(f"--gen {key}={value}: {_GEN_KEYS[key]} must be at least 1")
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
    a, b, m = game.a, game.b, game.m

    target = args.eps
    eps_max = None
    if args.sigma is not None:
        target = a * args.sigma / (2.0 * m)
        if game.symmetric:
            eps_max = a * args.sigma**2 / (32.0 * m)
            target = min(target, eps_max)
        if target == 0.0:
            raise ConfigurationError(f"--sigma {args.sigma:g} gives a gap target of 0")

    config = BulletinConfig(
        geometry=geometry,
        eta=args.eta,
        max_steps=args.steps if args.steps is not None else 200_000,
        target_gap=target,
    )
    config.resolve_etas(game)  # rejects bad flags before the potential is solved
    report = run_bulletin(game, config, reference=_reference(game))
    cert_gaps = report.certified_gaps
    check_ratios = args.sigma is not None and report.stopped_at_target
    # the certified average-cost minimum is solved only when the CSV or a ratio check reads it
    avg_min = min_average_cost(game) if args.out or check_ratios else None

    if args.out:
        avg_lower = max(avg_min.value - avg_min.certificate, 1e-300)
        _write_csv(
            args.out,
            ["step", "phi", "phi_gap", "delta_gap", "c_avg", "c_max", "ratio_avg", "bound_avg"],
            (
                np.arange(len(report.phi)),
                report.phi,
                cert_gaps,
                report.delta_gaps,
                report.avg_costs,
                report.max_costs,
                report.avg_costs / avg_lower,
                average_ratio_bound(game, np.maximum(cert_gaps, 0.0)),
            ),
        )

    assertions: list[tuple[str, bool, str]] = []

    ascent = report.max_ascent
    assertions.append(
        ("monotone-descent", ascent <= 1e-10, f"max one-step increase {ascent:.3e}")
    )

    delta_bounds = equilibrium_gap_bound(game, cert_gaps) + 1e-6
    delta_ok = bool(np.all(report.theorem_delta_gaps <= delta_bounds))
    worst = float((report.theorem_delta_gaps - delta_bounds).max())
    assertions.append(
        ("equilibrium-gap-bound", delta_ok, f"worst margin {worst:.3e}")
    )

    if target is not None:
        hit = report.first_certified_hit
        budget = report.theorem_budget(target)
        ok = hit is not None and hit <= budget
        assertions.append(
            (
                "convergence-budget",
                ok,
                f"first certified gap<= {target:g} at step {hit}, budget {budget}",
            )
        )

    ratio_avg = None
    if check_ratios:
        ratio_avg = average_cost_ratio(game, report.x_final, avg_min)
        bound = (b / a) * (1.0 + args.sigma)
        assertions.append(
            (
                "average-cost-ratio",
                ratio_avg <= bound + 1e-9,
                f"ratio {ratio_avg:.6g} vs (b/a)(1+sigma) = {bound:.6g}",
            )
        )
        if eps_max is not None:
            max_min = min_max_cost(game)
            ratio_max = max_cost_ratio(game, report.x_final, avg_min, max_min)
            bound_max = max_ratio_bound(game, eps_max)
            assertions.append(
                (
                    "maximum-cost-ratio",
                    bool(ratio_max <= bound_max + 1e-9),
                    f"ratio {ratio_max:.6g} vs bound {bound_max:.6g}",
                )
            )

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
        summary["budget"] = report.theorem_budget(target)
    if ratio_avg is not None:
        summary["ratio_avg"] = ratio_avg
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
        _write_csv(
            args.out,
            ["episode", "steps", "phi", "phi_gap", "max_est_error", "delta_mixed", "theorem_threshold"],
            (
                [rec.tau for rec in report.records],
                [rec.steps for rec in report.records],
                report.phis,
                report.certified_gaps,
                report.grad_errors,
                deltas,
                np.full(len(deltas), params.threshold),
            ),
        )

    gaps = report.certified_gaps
    assertions: list[tuple[str, bool, str]] = []

    after = gaps[params.tau0 - 1 :] if params.tau0 <= len(gaps) else gaps[:0]
    conv_ok = bool(np.all(after <= params.threshold + 1e-9)) if after.size else True
    assertions.append(
        (
            "bandit-gap-threshold",
            conv_ok,
            f"gaps after tau0={params.tau0} vs threshold {params.threshold:.6g}",
        )
    )

    below = np.nonzero(gaps < 2.0 * params.delta / params.theta)[0]
    if below.size:
        tail = gaps[below[0] :]
        perm_ok = bool(np.all(tail <= params.threshold + 1e-9))
    else:
        perm_ok = True
    assertions.append(("bandit-permanence", perm_ok, "post-threshold gaps stay bounded"))

    floor = config.lam / game.n
    floor_ok = all(bool(np.all(r.profile >= floor - 1e-12)) for r in report.records)
    assertions.append(("exploration-floor", floor_ok, f"floor {floor:.6g}"))

    summary = {
        "algo": args.algo,
        "episodes": len(report.records),
        "final_phi": float(report.phis[-1]),
        "final_gap": float(gaps[-1]),
        "max_est_error": float(report.grad_errors.max()),
        "epsilon": params.epsilon,
        "theta": params.theta,
        "delta": params.delta,
        "threshold": params.threshold,
        "tau0": params.tau0,
        "lambda": config.lam,
    }
    return _finish(args, summary, assertions)


def _finish(args: argparse.Namespace, summary: dict, assertions) -> int:
    """Print one line per assertion and the summary; return the exit code."""
    failed = [name for name, ok, _ in assertions if not ok]
    for name, ok, detail in assertions:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
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
    except (ConfigurationError, GameFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
