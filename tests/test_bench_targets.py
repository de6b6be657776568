"""The benchmark's per-layer tracer still finds every function it wraps.

``bench/tracing.py`` replaces public functions by name, wherever a module
binds them.  A rename or a changed import would leave a traced metric
silently at zero; this test makes it fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

from saddlelift import expr as ex

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_replaces_a_binding_of_every_target(tracing):
    methods = [(key, name, getattr(ex.Expr, name)) for key, name in tracing.EXPR_METHODS]
    targets = [
        (key, name, getattr(owner, name), where or tracing.MODULES)
        for key, owner, name, where in tracing.TARGETS
    ]
    traced = []
    with tracing.Tracer():
        for key, name, orig in methods:
            assert getattr(ex.Expr, name).__wrapped__ is orig, key
        for key, name, orig, where in targets:
            mods = [m for m in where if getattr(vars(m).get(name), "__wrapped__", None) is orig]
            assert mods, f"{key}: no module binding of {name} was traced"
            traced.extend((m, name, orig) for m in mods)
    # and the originals are back
    assert all(getattr(ex.Expr, name) is orig for _, name, orig in methods)
    assert all(vars(m)[name] is orig for m, name, orig in traced)
