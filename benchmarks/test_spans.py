"""Tests for the benchmark's span bookkeeping.

    python3 -m pytest benchmarks -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hoidet import features, geometry, inference  # noqa: E402


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_nested_children():
    # parent 0..10, child 1..4 with grandchild 2..3, child 6..9
    tracer = spans.Tracer(FakeClock([0, 1, 2, 3, 4, 6, 9, 10]))
    p = tracer.begin("p")
    c1 = tracer.begin("c")
    g = tracer.begin("g")
    tracer.end(g)
    tracer.end(c1)
    c2 = tracer.begin("c")
    tracer.end(c2)
    tracer.end(p)
    s = tracer.summary()
    assert s["p"] == {"n": 1, "total_s": 10, "self_s": 10 - 3 - 3}
    assert s["c"] == {"n": 2, "total_s": 6, "self_s": 6 - 1}
    assert s["g"] == {"n": 1, "total_s": 1, "self_s": 1}


def test_self_time_adjacent_and_overlapping_children():
    # adjacent children 2..4 and 4..5 cover 3; a child sticking out of
    # the parent counts only inside it
    assert spans.self_time(0, 10, [(2, 4), (4, 5)]) == 7
    assert spans.self_time(0, 10, [(2, 6), (3, 5)]) == 6
    assert spans.self_time(0, 10, [(8, 12), (-1, 1)]) == 7
    assert spans.self_time(0, 10, [(5, 5)]) == 10
    assert spans.self_time(0, 10, []) == 10


def test_spans_must_close_in_order():
    tracer = spans.Tracer(FakeClock(range(10)))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (40, 75.0), (39, 50.0), (20, 50.0), (5, 50.0),
    (0, 50.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_ratios_on_hand_built_counts():
    assert spans.memo_hit_ratio(misses=25, rows=100) == 0.75
    assert spans.memo_hit_ratio(misses=100, rows=100) == 0.0
    assert spans.memo_hit_ratio(misses=0, rows=0) == 0.0
    assert spans.ratio(3, 12) == 0.25
    assert spans.ratio(0, 0) == 0.0


def test_layer_metrics_attribute_pair_scoring_and_pooling():
    # one scene: infer 0..100 holds pooling 0..40 and score_detections
    # 50..100, which holds pooling 55..60 and a forward 60..70
    times = [0, 0, 40, 50, 55, 60, 60, 70, 100, 100]
    tracer = spans.Tracer(FakeClock(times))
    infer = tracer.begin("inference.infer")
    pool = tracer.begin("features.pool")
    tracer.end(pool)
    score = tracer.begin("inference.score_detections")
    pool = tracer.begin("features.pool")
    tracer.end(pool)
    fwd = tracer.begin("model.forward_human")
    tracer.end(fwd)
    tracer.end(score)
    tracer.end(infer)
    tracer.count("features.pool_rows", 40)
    tracer.count("inference.detections", 9)
    tracer.count("geometry.nms_candidates", 20)
    tracer.count("geometry.nms_kept", 5)
    metrics, tails = layers.layer_metrics(tracer)
    assert metrics["inference.pair_scoring_s"] == 35
    assert metrics["features.pool_s"] == 45
    assert metrics["inference.features_share"] == 0.45
    assert metrics["inference.pair_scoring_share"] == 0.35
    assert metrics["model.forward_s"] == 10
    assert metrics["features.memo_hit_ratio"] == 1.0
    assert metrics["inference.nms_keep_ratio"] == 0.25
    assert metrics["inference.detections_per_scene"] == 9
    assert metrics["inference.scene_ms_p50"] == 100_000
    assert tails["inference.scene_ms_tail"] == {"percentile": 50.0,
                                                "samples": 1}


def test_step_spacing_is_per_training_run():
    # two train commands of three steps each: the gap between commands
    # is not an iteration
    times = [0, 0, 1, 10, 11, 20, 21, 30,
             100, 100, 101, 105, 106, 110, 111, 130]
    tracer = spans.Tracer(FakeClock(times))
    for _ in range(2):
        run = tracer.begin("trainer.train")
        for _ in range(3):
            tracer.end(tracer.begin("model.sgd_step"))
        tracer.end(run)
    metrics, tails = layers.layer_metrics(tracer)
    assert metrics["trainer.steps_timed"] == 4
    np.testing.assert_allclose(layers._spacing_ms(tracer, "model.sgd_step"),
                               [10_000, 10_000, 5_000, 5_000])
    assert tails["trainer.step_ms_tail"]["samples"] == 4


def test_traced_restores_every_patched_attribute():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in layers.PATCHES]
    tracer = spans.Tracer()
    with layers.traced(tracer):
        assert inference.nms is not geometry.nms
        assert (features.SyntheticFeatureProvider.__dict__["pooled_matrix"]
                .__wrapped__.__name__ == "pooled_matrix")
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn


def test_stage_rate_is_one_pass_of_per_input_medians():
    stage = run.Stage()
    slow = 2 * run.REFERENCE_S  # machine at half the reference speed
    for key, work, wall, reference in ((0, 50, 2.0, run.REFERENCE_S),
                                       (0, 50, 2.0, slow),
                                       (0, 50, 1.5, slow),
                                       (1, 30, 0.5, run.REFERENCE_S),
                                       (1, 30, 0.7, run.REFERENCE_S)):
        stage.add(key, work, run.Timing(wall, reference))
    # input 0: scaled seconds 2.0, 1.0, 0.75, median 1.0; input 1: 0.6
    assert stage.pass_seconds() == 1.6
    assert stage.rate() == 80 / 1.6
    assert run.Stage().rate() == 0.0


def test_timed_brackets_the_call_with_the_reference_loop():
    result, timing = run.timed(sum, [1, 2, 3])
    assert result == 6
    assert 0 < timing.wall < timing.reference
    assert timing.seconds == timing.wall * run.REFERENCE_S / timing.reference
