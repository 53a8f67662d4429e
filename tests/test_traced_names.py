"""Every library function the benchmark traces still exists.

``bench/tracing.py`` wraps library functions by name and skips any it cannot
find, so renaming or deleting a traced stage silently turns that stage's
per-layer numbers into zeros.  This test resolves each ``WRAPPED`` entry the
way the tracer does and fails instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Stages the library dropped before this check existed; their spans read zero.
GONE = {("tlschwarz.coarse", "rank_filter"), ("tlschwarz.subdomain", "factor_dense")}


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.WRAPPED if (mod, attr) not in GONE]


@pytest.mark.parametrize("module_name, attr", _wrapped())
def test_traced_function_exists(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(fn_name)), f"{module_name}.{attr} is traced but missing"
