"""The benchmark tracer's span table names functions that exist.

`perfbench/spans.py` wraps bagforge functions by name; a renamed or deleted
function would only fail there when the benchmark runs.  These tests load
the table as it is and resolve every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PY)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("span", spans.SPANS)
def test_traced_name_resolves(span):
    layer, _, qual = span.partition(".")
    home = importlib.import_module(f"bagforge.{layer}")
    if "." in qual:     # a method, patched on the class that defines it
        cls_name, meth = qual.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth)), span
    else:
        assert callable(getattr(home, qual, None)), span


@pytest.mark.parametrize("layer", spans.QUAD_HOMES)
def test_counted_quad_binding_resolves(layer):
    assert callable(getattr(importlib.import_module(f"bagforge.{layer}"),
                            "quad", None))
