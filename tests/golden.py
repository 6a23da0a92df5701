"""The one writer behind the golden recorders (the `__main__` blocks of the
tests/test_*_golden.py modules).

Before it overwrites a golden file it prints every recorded entry whose value
changed, old -> new, so a re-record shows exactly what moved; on an unchanged
tree it prints no change and writes the same bytes.
"""

import json
from pathlib import Path

_ABSENT = object()


def _entries(value, key=()):
    """(key path, value) for every entry of nested JSON dicts and lists."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _entries(v, (*key, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _entries(v, (*key, i))
    else:
        yield key, value


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def write_golden(path: Path, record: dict) -> None:
    """Print each entry of record that differs from path's, then write record
    to path as indented JSON."""
    text = json.dumps(record, indent=1) + "\n"
    old = dict(_entries(json.loads(path.read_text()))) if path.exists() else {}
    new = dict(_entries(json.loads(text)))
    changed = [k for k in {**old, **new} if old.get(k, _ABSENT) != new.get(k, _ABSENT)]
    for key in changed:
        print(f"{json.dumps(key)}: {_show(old.get(key, _ABSENT))} -> {_show(new.get(key, _ABSENT))}")
    print(f"{path.name}: {len(changed)} changed entries")
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
