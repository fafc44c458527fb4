"""The benchmark's traced boundaries exist in the program.

``perfbench/spans.py`` times each layer by replacing the functions and
methods it names in ``BOUNDARIES``; a traced run fails with ``KeyError``
when one of them has been renamed or removed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans()


@pytest.mark.parametrize("module,path,name", SPANS.BOUNDARIES,
                         ids=[f"{m}.{p}" for m, p, _ in SPANS.BOUNDARIES])
def test_traced_boundary_resolves(module, path, name):
    holder, attr = SPANS._resolve(importlib.import_module(module), path)
    # The tracer reads the attribute from the holder's own namespace.
    assert attr in holder.__dict__
    assert callable(getattr(holder, attr))
