"""The benchmark's layer tracer wraps canoninv names from outside.

``perfbench/layertrace.py`` lists every (module, attribute, class) it
rebinds; a rename in the package would break a ``--trace 1`` benchmark run
without failing any other test.  This test only reads that list.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
)
_layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_layertrace)
WRAPPED = _layertrace.WRAPPED


@pytest.mark.parametrize("name,module,attr,cls", [w[:4] for w in WRAPPED],
                         ids=[w[0] for w in WRAPPED])
def test_wrapped_name_resolves(name, module, attr, cls):
    home = importlib.import_module(f"canoninv.{module}")
    if cls is not None:
        # the tracer replaces the class's own attribute, not an inherited one
        owner = getattr(home, cls)
        assert callable(owner.__dict__.get(attr)), name
    else:
        assert callable(getattr(home, attr, None)), name
