"""The benchmark's tracer finds every function its span table names.

`perfbench/spans.py` wraps the congames functions listed by "module:qualname"
in `TARGETS`; deleting or renaming one breaks every traced benchmark run when
the tracer installs.  This test only reads `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

import congames  # noqa: F401  (the tracer patches the loaded congames modules)
import congames.cli  # noqa: F401

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
