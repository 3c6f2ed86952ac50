"""The benchmark's per-layer tracing patches hoidet attributes by name.

``benchmarks/layers.py`` swaps ``owner.__dict__[attr]`` for a wrapper
for every entry of its ``PATCHES`` and ``COUNTED`` tables, so renaming
or inlining one of those functions would crash a traced benchmark run.
This test fails first instead.
"""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmarks")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, BENCH)  # layers.py imports its sibling spans.py
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_layers", os.path.join(BENCH, "layers.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


def test_every_traced_attribute_exists(layers):
    entries = [e[:2] for e in layers.PATCHES] + [e[:2] for e in layers.COUNTED]
    assert len(entries) > 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in entries if attr not in owner.__dict__]
    assert missing == []
