"""Every span target of the end-to-end benchmark still resolves.

``benchmarks/e2e/spans.py`` wraps the functions of each layer by name
(its ``TARGETS`` table).  A module-level name or a class that no longer
exists makes the traced pass fail when it installs the wrappers; a
class row none of whose named methods is defined any more silently
moves that time to another layer.  The benchmark's smoke test finds
either only after a full traced run, so this checks the table itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "spans.py"
_spec = importlib.util.spec_from_file_location("spans", SCRIPT)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _row_id(row):
    _layer, module_name, owner, names = row
    return f"{module_name}.{owner or '|'.join(names)}"


@pytest.mark.parametrize("row", spans.TARGETS, ids=_row_id)
def test_span_target_resolves(row):
    layer, module_name, owner, names = row
    assert layer in spans.LAYERS
    module = importlib.import_module(module_name)
    if owner is None:
        missing = [name for name in names if name not in vars(module)]
        assert not missing, f"{module_name} has no {missing}"
        return
    cls = getattr(module, owner, None)
    assert isinstance(cls, type), f"{module_name} has no class {owner}"
    if names == "*":
        assert spans._own_methods(cls), f"{owner} defines no method"
        return
    defined = [
        name
        for sub in spans._subclasses(cls)
        for name in names
        if name in vars(sub)
    ]
    assert defined, f"neither {owner} nor a subclass defines any of {names}"
