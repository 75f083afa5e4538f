"""The simulator modules compare enum members through module globals.

On Python 3.9-3.11 the enum metaclass defines ``__getattr__``, so every
``EventKind.LOAD`` in a function body takes CPython's slow attribute
path: about 130 ns against 18 ns for a module global.  The step loops,
their schemes and the per-access helpers compare such members once per
simulated event, and the TM kernels' setup stagger once per setup event
of every workload build, so each of these modules binds the members it
compares to module globals once, at import.  This test keeps it that way: no
function defined in them may name one of the enum classes.
"""

import importlib
import inspect
import types

import pytest

ENUM_CLASSES = frozenset(
    ("EventKind", "MessageKind", "TaskStatus", "SetRestrictionAction",
     "Granularity")
)

HOT_MODULES = (
    "repro.tm.system",
    "repro.tm.bulk",
    "repro.tm.eager",
    "repro.tm.lazy",
    "repro.tm.conflict",
    "repro.tm.txstate",
    "repro.tls.system",
    "repro.tls.task",
    "repro.tls.bulk",
    "repro.tls.eager",
    "repro.tls.lazy",
    "repro.tls.conflict",
    "repro.checkpoint.system",
    "repro.checkpoint.schemes",
    "repro.core.bdm",
    "repro.core.expansion",
    "repro.core.decode",
    "repro.spec.system",
    "repro.coherence.message",
    "repro.sim.trace",
    "repro.workloads.kernels.common",
)


def _function_codes(code: types.CodeType):
    """Every function code object nested in ``code``: functions, methods,
    nested functions, lambdas and comprehensions.  Module and class bodies
    run once, at import, and are not functions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _function_codes(const)


@pytest.mark.parametrize("module_name", HOT_MODULES)
def test_no_function_looks_up_an_enum_member(module_name):
    module = importlib.import_module(module_name)
    code = compile(inspect.getsource(module), module.__file__, "exec")
    offenders = {
        f"{function.co_name} (line {function.co_firstlineno})": sorted(
            ENUM_CLASSES.intersection(function.co_names)
        )
        for function in _function_codes(code)
        if ENUM_CLASSES.intersection(function.co_names)
    }
    assert not offenders, (
        f"{module_name}: bind the compared members to module globals "
        f"once per module instead: {offenders}"
    )


def test_the_walk_sees_methods_and_nested_functions():
    source = (
        "import enum\n"
        "class K(enum.Enum):\n"
        "    A = 1\n"
        "class C:\n"
        "    def method(self, k):\n"
        "        return [x for x in k if x is EventKind.LOAD]\n"
    )
    codes = list(_function_codes(compile(source, "<probe>", "exec")))
    names = {code.co_name for code in codes}
    assert "method" in names and not names & {"K", "C", "<module>"}
    # Before Python 3.12 the comprehension is a nested code object.
    assert any("EventKind" in code.co_names for code in codes)
