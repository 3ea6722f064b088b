"""Every name the benchmark's span recorder wraps exists in the package.

``perfbench/spans.py`` looks its names up only when a traced run installs
it, so a deleted or renamed function would otherwise surface in ``--trace``
runs alone."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_is_callable():
    missing = [
        f"{module}.{name}"
        for module, names in _layers().values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
