"""The names `bench/tracer.py` patches and reads still exist.

The tracer wraps package functions by name and its span tags read call
arguments by parameter name, so a rename in the package would only show
up as a crash of a traced benchmark run.  These tests load the tracer by
path and resolve each of its specs against the package.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(spec):
    module = importlib.import_module(spec.module)
    if spec.attr == "REFERENCES[*]":
        assert module.REFERENCES
        return None
    if "." in spec.attr:
        cls_name, method = spec.attr.split(".")
        raw = vars(getattr(module, cls_name))[method]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(module, spec.attr)


def test_every_spec_resolves(tracer):
    for spec in tracer.SPECS:
        target = _resolve(spec)
        assert target is None or callable(target), spec


def test_tags_read_existing_parameters(tracer):
    # a tag reads arguments as a["name"] or a.get("name"): those string
    # constants must stay parameter names of the traced function
    for spec in tracer.SPECS:
        if spec.tag is None:
            continue
        params = inspect.signature(_resolve(spec)).parameters
        names = [c for c in spec.tag.__code__.co_consts if isinstance(c, str)]
        assert all(name in params for name in names), (spec.attr, names)


def test_certificate_check_tag_contract():
    from curlsharp import certificates as certs
    assert "cert" in inspect.signature(certs.check_certificate).parameters
    assert "n_values" in {f.name for f in dataclasses.fields(certs.Certificate)}
