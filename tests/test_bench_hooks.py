"""The benchmark's per-layer tracing patches hoidet attributes by name.

``benchmarks/layers.py`` swaps ``owner.__dict__[attr]`` for a wrapper
for every entry of its ``PATCHES`` and ``COUNTED`` tables, and some
wrappers read the arguments they are called with, so renaming or
inlining one of those functions, or changing what a caller passes to
one, would crash a traced benchmark run. These tests fail first
instead.
"""

import importlib.util
import json
import os
import sys

import pytest

from hoidet.cli import main

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


def test_traced_train_and_infer_run(layers, tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    inputs = [arg for key, name in (("annotations", "annotations.json"),
                                    ("features", "features.npz"),
                                    ("proposals", "proposals.json"))
              for arg in ("--" + key, str(data / name))]
    assert main(["synth", "--out", str(data), "--num-scenes", "2"]) == 0
    tracer = layers.spans.Tracer()
    with layers.traced(tracer):
        assert main(["train", "--out", str(run), "--phases", "2:0.001",
                     "--hidden-dim", "8", *inputs]) == 0
        assert main(["infer", "--out", str(tmp_path / "infer"),
                     "--checkpoint", str(run / "checkpoint.bin"),
                     *inputs]) == 0
    metrics, _ = layers.layer_metrics(tracer)
    assert metrics["model.backward_rows"] > 0
    assert metrics["features.pool_rows"] > 0
    # the counts read off the traced infer calls are the command's own
    with open(tmp_path / "infer" / "infer_stats.json") as fh:
        stats = json.load(fh)
    assert stats["num_detections"] > 0 and stats["num_pairs_scored"] > 0
    assert tracer.counts["inference.detections"] == stats["num_detections"]
    # every detection passed through the traced ``inference.nms``
    assert tracer.counts["geometry.nms_kept"] == stats["num_detections"]
    assert metrics["inference.pairs_scored"] == stats["num_pairs_scored"]
