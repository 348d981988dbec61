"""Every perfbench probe group still finds an entry point in ``repro``.

``perfbench/layers.py`` names the entry point of each layer by dotted path
and marks a group's metrics ``"absent"`` when none of its paths resolves,
so renaming or deleting such a function in ``src/`` silently turns a
traced benchmark result into one with absent metrics.  This test resolves
every path the way the tracer does and names each group left without a
callable.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _resolves_to_callable(layers, path: str) -> bool:
    found = layers.resolve(path)
    if found is None:
        return False
    raw = found[2]
    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    return callable(func)


def test_every_probe_group_resolves():
    layers = _load_layers()
    paths_by_group = defaultdict(list)
    for target in layers.TARGETS:
        paths_by_group[target.group].append(target.path)
    unresolved = {group: paths for group, paths in paths_by_group.items()
                  if not any(_resolves_to_callable(layers, path) for path in paths)}
    assert not unresolved, (
        "perfbench probe groups with no resolvable entry point (their metrics "
        f"would be reported absent): {unresolved}")
