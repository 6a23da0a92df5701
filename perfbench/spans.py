"""Spans around the public functions of congames, for the traced run only.

The tracer replaces each target function (or method) with a wrapper that
records a span: name, start, end and the index of the enclosing span, plus a
few counts read from the return value.  Wrappers are installed for traced
rounds and removed again for untraced ones, so an untraced round runs the
package exactly as shipped.  Spans stay in memory and are written out when
the run ends.

Self time of a span is its duration minus the durations of its direct
children; a layer's time is the sum of the self times of its spans, so the
nested reference solve inside `min_max_cost` is charged to the solver
once, and the edge-cost evaluations inside a bulletin run are charged to
`game`, not to `bulletin`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

# Which layer each traced name belongs to.  Names are "module:qualname".
TARGETS = {
    "congames.minimize:reference_minimizer": "minimize",
    "congames.minimize:min_average_cost": "minimize",
    "congames.minimize:min_max_cost": "minimize",
    "congames.bulletin:run_bulletin": "bulletin",
    "congames.bregman:project_simplex_rows": "bregman.project",
    "congames.bregman:EuclideanGeometry.mirror_step": "bregman.mirror",
    "congames.bregman:EntropyGeometry.mirror_step": "bregman.mirror",
    "congames.game:CongestionGame.edge_costs": "game.edge_costs",
    "congames.game:CongestionGame.path_costs": "game.path_costs",
    "congames.bandit:run_bandit": "bandit",
    "congames.bandit:mixed_delta_gap": "bandit.mixed_delta",
    "congames.gamefile:parse_game": "gamefile",
    "congames.generator:generate_random_game": "generator",
    "congames.cli:main": "cli",
}


def _oracle_attrs(out):
    return {"iterations": out.iterations, "certificate": out.certificate,
            "converged": bool(out.converged)}


def _bulletin_attrs(out):
    return {"steps": out.steps, "target": out.target_gap is not None,
            "hit": bool(out.stopped_at_target)}


def _bandit_attrs(out):
    recs = [r for r in out.records if r.steps > 0]
    return {
        "episodes": len(out.records),
        "joint_steps": sum(r.steps for r in out.records),
        "min_visits": min((int(r.visits.min()) for r in recs), default=None),
        "fallbacks": sum(int(r.fallback.sum()) for r in out.records),
        "entries": sum(r.fallback.size for r in out.records),
        "accurate": sum(r.grad_error <= out.params.epsilon for r in out.records),
    }


ATTRS = {
    "congames.minimize:reference_minimizer": _oracle_attrs,
    "congames.minimize:min_average_cost": _oracle_attrs,
    "congames.bulletin:run_bulletin": _bulletin_attrs,
    "congames.bandit:run_bandit": _bandit_attrs,
}


class Tracer:
    """Records spans while installed; `spans` rows are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span of the benchmark itself (setup, round); yields its index."""
        idx = self._enter(name)
        try:
            yield idx
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(out)
            return out

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever congames binds it (defining module and importers)."""
        if self._patches:
            return
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "congames" or k.startswith("congames."))]
        for name in TARGETS:
            mod_name, qual = name.split(":")
            owner = sys.modules[mod_name]
            if "." in qual:  # method: patch the class attribute once
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, qual)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, obj, attr, original, wrapped) -> None:
        setattr(obj, attr, wrapped)
        self._patches.append((obj, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index (-1 for roots), attrs."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "attrs"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_of(spans) -> list[int]:
    roots = []
    for idx, span in enumerate(spans):
        parent = span[3]
        roots.append(idx if parent < 0 else roots[parent])
    return roots


def pass_totals(spans, root_idx: int, speed: float = 1.0) -> dict:
    """Counts and times of one root span (a setup or a round), by layer.

    Times are multiplied by `speed`, the mean machine speed over the root
    span (speed.py), so they are in the same calibrated seconds as wall_s.
    """
    selfs = self_times(spans)
    roots = root_of(spans)
    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    min_visits = None
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        if roots[idx] != root_idx or idx == root_idx:
            continue
        layer = TARGETS[name]
        add(layer + ".calls", 1)
        add(layer + ".self_s", selfs[idx])
        add(layer + ".total_s", end - start)
        if name.endswith("min_max_cost"):
            add("minimize.max_cost_s", selfs[idx])
        if attrs is None:
            continue
        if layer == "minimize":
            add("minimize.fw_self_s", selfs[idx])
            add("minimize.fw_iters", attrs["iterations"])
            add("minimize.unconverged", 0 if attrs["converged"] else 1)
            tot["minimize.cert_max"] = max(tot.get("minimize.cert_max", 0.0),
                                           attrs["certificate"])
        elif layer == "bulletin":
            add("bulletin.steps", attrs["steps"])
            if attrs["target"]:
                add("bulletin.targeted", 1)
                add("bulletin.hits", 1 if attrs["hit"] else 0)
        elif layer == "bandit":
            for key in ("episodes", "joint_steps", "fallbacks", "entries", "accurate"):
                add("bandit." + key, attrs[key])
            if attrs["min_visits"] is not None:
                min_visits = attrs["min_visits"] if min_visits is None else min(
                    min_visits, attrs["min_visits"])
    if min_visits is not None:
        tot["bandit.min_visits"] = min_visits
    for key in tot:
        if key.endswith("_s"):
            tot[key] *= speed
    return tot


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: dict, rounds: list[dict], overhead_frac: float,
                  cli_io: dict) -> dict:
    """Per-layer metrics for one pass: the first setup plus one round.

    Counts come from the first traced round (every round does identical
    work); times are the median over traced rounds.
    """
    first = rounds[0]

    def count(key):
        return setup.get(key, 0) + first.get(key, 0)

    def secs(key):
        return setup.get(key, 0.0) + statistics.median(r.get(key, 0.0) for r in rounds)

    episodes = count("bandit.episodes")
    min_visits = [t["bandit.min_visits"] for t in (setup, first) if "bandit.min_visits" in t]
    m = {
        "minimize.calls": (count("minimize.calls"), "count"),
        "minimize.s": (secs("minimize.self_s"), "s"),
        "minimize.fw_iters": (count("minimize.fw_iters"), "count"),
        "minimize.us_per_iter": (1e6 * _ratio(secs("minimize.fw_self_s"),
                                              count("minimize.fw_iters")), "us"),
        "minimize.cert_max": (max(setup.get("minimize.cert_max", 0.0),
                                  first.get("minimize.cert_max", 0.0)), "gap"),
        "minimize.unconverged": (count("minimize.unconverged"), "count"),
        "minimize.max_cost_s": (secs("minimize.max_cost_s"), "s"),
        "bulletin.calls": (count("bulletin.calls"), "count"),
        "bulletin.s": (secs("bulletin.self_s"), "s"),
        "bulletin.steps": (count("bulletin.steps"), "count"),
        "bulletin.us_per_step": (1e6 * _ratio(secs("bulletin.total_s"),
                                              count("bulletin.steps")), "us"),
        "bulletin.hit_frac": (_ratio(count("bulletin.hits"), count("bulletin.targeted")),
                              "ratio"),
        "bregman.project_calls": (count("bregman.project.calls"), "count"),
        "bregman.project_s": (secs("bregman.project.self_s"), "s"),
        "bregman.mirror_calls": (count("bregman.mirror.calls"), "count"),
        "bregman.mirror_s": (secs("bregman.mirror.self_s"), "s"),
        "game.edge_costs_calls": (count("game.edge_costs.calls"), "count"),
        "game.edge_costs_s": (secs("game.edge_costs.self_s"), "s"),
        "game.path_costs_calls": (count("game.path_costs.calls"), "count"),
        "game.path_costs_s": (secs("game.path_costs.self_s"), "s"),
        "bandit.calls": (count("bandit.calls"), "count"),
        "bandit.s": (secs("bandit.self_s"), "s"),
        "bandit.episodes": (episodes, "count"),
        "bandit.joint_steps": (count("bandit.joint_steps"), "count"),
        "bandit.joint_steps_per_s": (_ratio(count("bandit.joint_steps"),
                                            secs("bandit.total_s")), "1/s"),
        "bandit.min_visits": (min(min_visits) if min_visits else 0, "count"),
        "bandit.fallback_frac": (_ratio(count("bandit.fallbacks"), count("bandit.entries")),
                                 "ratio"),
        "bandit.accurate_frac": (_ratio(count("bandit.accurate"), episodes), "ratio"),
        "bandit.mixed_delta_calls": (count("bandit.mixed_delta.calls"), "count"),
        "bandit.mixed_delta_s": (secs("bandit.mixed_delta.self_s"), "s"),
        "gamefile.parse_s": (secs("gamefile.self_s"), "s"),
        "generator.s": (secs("generator.self_s"), "s"),
        "generator.games": (count("generator.calls"), "count"),
        "cli.invocations": (count("cli.calls"), "count"),
        "cli.s": (secs("cli.self_s"), "s"),
        "cli.csv_bytes": (cli_io.get("csv_bytes", 0), "count"),
        "cli.csv_changed": (cli_io.get("csv_changed", 0), "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
