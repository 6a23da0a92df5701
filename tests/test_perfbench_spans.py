"""The benchmark's tracer finds every function its span table names, and
every one of them runs.

`perfbench/spans.py` wraps the congames functions listed by "module:qualname"
in `TARGETS`; deleting or renaming one breaks every traced benchmark run when
the tracer installs, and a target no run calls leaves its layer reading zero.
These tests only read `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

import congames  # noqa: F401  (the tracer patches the loaded congames modules)
import congames.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(name: str):
    mod_name, qual = name.split(":")
    owner = sys.modules[mod_name]
    if "." in qual:
        cls_name, attr = qual.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, qual)


def test_span_targets_are_patched_and_restored():
    spans = _load_spans()
    originals = {name: _target(name) for name in spans.TARGETS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, original in originals.items():
            wrapped = _target(name)
            assert wrapped is not original and wrapped.__wrapped__ is original, name
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        assert _target(name) is original, name


def test_every_span_target_records_a_span(tmp_path, capsys):
    # four tiny CLI runs reach every traced function: a span on code no run
    # calls would read zero calls in every benchmark workload
    game_file = str(SPANS.parents[1] / "games" / "two_routes.game")
    runs = [
        ["--gen", "n=2,m=3,d=2,sym=1", "--algo", "bulletin-gd", "--sigma", "0.25",
         "--out", str(tmp_path / "bulletin.csv")],
        ["--game", game_file, "--algo", "bulletin-mu", "--eps", "1e-3"],
        ["--gen", "n=2,m=3,d=2", "--algo", "bandit-gd", "--episodes", "1", "--nu", "1",
         "--out", str(tmp_path / "bandit.csv")],
        ["--gen", "n=2,m=3,d=2", "--algo", "bandit-mu", "--episodes", "1", "--nu", "1"],
    ]
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        codes = [congames.cli.main(argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0], capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert sorted(set(spans.TARGETS) - recorded) == []
