#!/usr/bin/env python3
"""Sweep bulletin-board dynamics over random games and tabulate convergence.

For each game the script runs gradient descent and multiplicative updates to
a common gap target, then prints the hit time next to the closed-form step
budgets, and the social-cost ratios at the final profile.

Usage: python scripts/bulletin_convergence.py [--eps 1e-3] [--games 8] [--out DIR]
"""

import argparse
from pathlib import Path

from congames import (
    BulletinConfig,
    average_cost_ratio,
    generate_random_game,
    min_average_cost,
    reference_minimizer,
    run_bulletin,
)
from congames.checks import step_budget


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--games", type=int, default=8)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--out", type=Path, default=None, help="optional CSV directory")
    args = ap.parse_args()

    print(f"{'game':>6} {'algo':>12} {'steps':>8} {'budget':>10} {'final gap':>12} {'CA ratio':>9}")
    for i in range(args.games):
        n = (2, 4, 8)[i % 3]
        game = generate_random_game(seed=args.seed + i, n=n, m=3 + i % 6, d=2 + i % 3)
        ref = reference_minimizer(game)
        avg = min_average_cost(game)
        for kind in ("euclidean", "negative-entropy"):
            eta = float(BulletinConfig(geometry=kind).resolve_etas(game).min())
            budget = step_budget(game, kind, eta, args.eps)
            cfg = BulletinConfig(geometry=kind, target_gap=args.eps, max_steps=budget)
            rep = run_bulletin(game, cfg, reference=ref)
            ratio_avg = average_cost_ratio(game, rep.x_final, avg)
            print(
                f"{i:>6} {kind:>12} {rep.steps:>8} {budget:>10} "
                f"{rep.certified_gaps[-1]:>12.3e} {ratio_avg:>9.4f}"
            )
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                rows = "\n".join(
                    f"{t},{rep.phi[t]:.12g},{rep.certified_gaps[t]:.12g},{rep.delta_gaps[t]:.12g}"
                    for t in range(len(rep.phi))
                )
                path = args.out / f"game{i}_{kind}.csv"
                path.write_text("step,phi,phi_gap,delta_gap\n" + rows + "\n")


if __name__ == "__main__":
    main()
