"""Line-oriented game file format.

    # comment
    players 2
    edge e1 poly 0.5 0.25      # coefficients of y, y^2, ...
    edge e2 poly 1
    path 1 e1
    path 2 e1 e2

Players are numbered 1..n in files.  The loader validates every cost
function and computes the derived structural parameters.
"""

from __future__ import annotations

from pathlib import Path

from .costs import CostValidationError, PolynomialCost
from .game import CongestionGame


class GameFileError(ValueError):
    """Parse or validation failure, annotated with the offending line."""


def parse_game_text(text: str) -> CongestionGame:
    n: int | None = None
    edge_ids: dict[str, int] = {}
    edge_costs: list = []
    player_paths: dict[int, list[frozenset[int]]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]

        if kind == "players":
            if n is not None:
                raise GameFileError(f"line {lineno}: duplicate players header")
            if len(tokens) != 2:
                raise GameFileError(f"line {lineno}: expected 'players <n>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GameFileError(f"line {lineno}: player count must be an integer") from None
            if n < 1:
                raise GameFileError(f"line {lineno}: need at least one player")

        elif kind == "edge":
            if len(tokens) < 4 or tokens[2] != "poly":
                raise GameFileError(f"line {lineno}: expected 'edge <id> poly <c1> ...'")
            name = tokens[1]
            if name in edge_ids:
                raise GameFileError(f"line {lineno}: duplicate edge id {name!r}")
            try:
                coefs = [float(t) for t in tokens[3:]]
            except ValueError:
                raise GameFileError(f"line {lineno}: bad coefficient") from None
            try:
                cost = PolynomialCost(coefs)
            except CostValidationError as exc:
                raise GameFileError(f"line {lineno}: edge {name!r}: {exc}") from None
            edge_ids[name] = len(edge_costs)
            edge_costs.append(cost)

        elif kind == "path":
            if n is None:
                raise GameFileError(f"line {lineno}: 'players' header must come first")
            if len(tokens) < 3:
                raise GameFileError(f"line {lineno}: expected 'path <player> <edge ids>'")
            try:
                player = int(tokens[1])
            except ValueError:
                raise GameFileError(f"line {lineno}: player index must be an integer") from None
            if not (1 <= player <= n):
                raise GameFileError(f"line {lineno}: player {player} out of range 1..{n}")
            ids = tokens[2:]
            if len(set(ids)) != len(ids):
                raise GameFileError(f"line {lineno}: duplicate edge in path")
            try:
                path = frozenset(edge_ids[t] for t in ids)
            except KeyError as exc:
                raise GameFileError(f"line {lineno}: unknown edge id {exc.args[0]!r}") from None
            player_paths.setdefault(player, []).append(path)

        else:
            raise GameFileError(f"line {lineno}: unknown directive {kind!r}")

    if n is None:
        raise GameFileError("missing 'players' header")
    if not edge_costs:
        raise GameFileError("no edges declared")
    for i in range(1, n + 1):
        if i not in player_paths:
            raise GameFileError(f"player {i} has no paths")
    return CongestionGame(
        n=n,
        edges=tuple(edge_costs),
        paths=tuple(tuple(player_paths[i]) for i in range(1, n + 1)),
    )


def parse_game(path) -> CongestionGame:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from None
    return parse_game_text(text)


def render_game(game: CongestionGame) -> str:
    """Inverse of parse: parse_game_text(render_game(g)) reproduces g exactly."""
    lines = [f"players {game.n}"]
    for e, cost in enumerate(game.edges):
        coefs = " ".join(format(c, ".17g") for c in cost.coefficients)
        lines.append(f"edge e{e} poly {coefs}")
    for i, player_paths in enumerate(game.paths, start=1):
        for path in player_paths:
            ids = " ".join(f"e{e}" for e in sorted(path))
            lines.append(f"path {i} {ids}")
    return "\n".join(lines) + "\n"
