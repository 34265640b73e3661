"""Fixtures shared by the test modules."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curlsharp import polyfamily, spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def load_bench():
    """The loader of a `bench/` module by name (`"workloads"`,
    `"checks"`), imported from its file without touching `bench/`."""
    return _load


@pytest.fixture
def family_at():
    """The numeric family at a Params: `polyfamily.build_family()` with
    (lam, N) substituted, the reference `channel_polys` answers to."""
    def at(p):
        subs = {"lam": p.lam, "N": Fraction(p.N)}
        return {k: v.subs_many(subs) for k, v in polyfamily.build_family().items()}
    return at


@pytest.fixture
def cold_bases():
    """Empty the per-process basis and derivative-table caches before the
    test, so it computes every basis afresh, and after it, so a basis it
    built under a patched gate or FFT sizing serves no later test.  Yields
    the clearing function, for a test that needs a cold start again."""
    def clear():
        spectral.Profile.form_basis.cache_clear()
        spectral._derivative_table.cache_clear()

    clear()
    yield clear
    clear()
