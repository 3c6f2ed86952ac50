"""Per-layer spans recorded from outside the program.

``traced(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which one ``hoidet`` layer calls the next
(``hoidet.trainer.backward``, ``hoidet.inference.nms``,
``hoidet.cli.infer``, ...) with wrappers that record a span and counts.
The program's source is untouched and every original is restored on
exit. ``layer_metrics`` reduces the recorded spans to the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from hoidet import cli, dataset, evaluation, features, inference, trainer

import spans

FORWARD_SPANS = ("model.forward_object", "model.forward_human",
                 "model.interaction_human_logits",
                 "model.interaction_object_logits")


def _count_rows(tracer, args, result):
    tracer.count("features.pool_rows", len(args[2]))


def _count_backward_rows(tracer, args, result):
    tracer.count("model.backward_rows", sum(
        len(img.object_feats) + len(img.human_feats)
        + len(img.interaction_h_feats) for img in args[0]))


def _count_nms(tracer, args, result):
    tracer.count("geometry.nms_candidates", len(args[0]))
    tracer.count("geometry.nms_kept", len(result))


def _count_infer(tracer, args, result):
    stats = result[1]
    tracer.count("inference.detections", stats.num_detections)
    tracer.count("inference.pairs_scored", stats.num_pairs_scored)


def _count_triplets(tracer, args, result):
    tracer.count("evaluation.triplets", len(args[0]))


# (owner, attribute the caller looks up, span name, count hook)
PATCHES = (
    (dataset, "generate_synthetic", "dataset.generate_synthetic", None),
    (cli, "load_annotations", "dataset.load_annotations", None),
    (cli, "read_feature_maps", "cli.read_feature_maps", None),
    (cli, "read_proposals", "cli.read_proposals", None),
    (cli, "load_checkpoint", "model.load_checkpoint", None),
    (cli, "train", "trainer.train", None),
    (cli, "infer", "inference.infer", _count_infer),
    (cli, "write_predictions", "inference.write_predictions", None),
    (cli, "read_predictions", "inference.read_predictions", None),
    (cli, "evaluate_triplets", "evaluation.evaluate", _count_triplets),
    (evaluation, "match_triplets", "evaluation.match", None),
    (trainer, "assign_labels", "trainer.assign_labels", None),
    (trainer, "featurize", "trainer.featurize", None),
    (trainer, "backward", "model.backward", _count_backward_rows),
    (trainer, "sgd_step", "model.sgd_step", None),
    (trainer, "save_checkpoint", "model.save_checkpoint", None),
    (features.SyntheticFeatureProvider, "pooled_matrix", "features.pool",
     _count_rows),
    (features, "roi_align", "features.roi_align", None),
    (inference, "forward_object", "model.forward_object", None),
    (inference, "forward_human", "model.forward_human", None),
    (inference, "interaction_human_logits", "model.interaction_human_logits",
     None),
    (inference, "interaction_object_logits",
     "model.interaction_object_logits", None),
    (inference, "detect_objects", "inference.detect", None),
    (inference, "nms", "geometry.nms", _count_nms),
    (inference, "score_detections", "inference.score_detections", None),
)

# called hundreds of thousands of times per run: counted, not timed, so
# that the wrapper adds as little as possible to pair scoring's time
COUNTED = (
    (inference, "gaussian_compat", "density.compat_calls"),
    (inference, "mixture_compat", "density.compat_calls"),
)


def _counted(tracer, name, fn):
    counts = tracer.counts

    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


@contextlib.contextmanager
def traced(tracer: spans.Tracer):
    """Record spans at every layer boundary inside the block."""
    saved = []
    try:
        for owner, attr, name, hook in PATCHES:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
        for owner, attr, name in COUNTED:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, _counted(tracer, name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: spans.Tracer) -> tuple[dict, dict]:
    """Per-layer metric values, and the sample counts behind the tails."""
    s = tracer.summary()
    c = tracer.counts

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("n", 0)

    def count(name):
        return c[name]

    # score_detections' children are its pooling and forward spans, so
    # its self time is pair scoring: encode_rel, compat and the argmax
    infer_s = total("inference.infer")
    pool_in_infer = _total_under(tracer, "features.pool", "inference.infer")
    scene_ms = tracer.durations("inference.infer") * 1e3
    step_ms = _spacing_ms(tracer, "model.sgd_step")
    scene_tail = spans.tail_percentile(len(scene_ms))
    step_tail = spans.tail_percentile(len(step_ms))
    metrics = {
        "features.pool_s": total("features.pool"),
        "features.pool_rows": count("features.pool_rows"),
        "features.roi_align_calls": calls("features.roi_align"),
        "features.roi_align_s": total("features.roi_align"),
        "features.memo_hit_ratio": spans.memo_hit_ratio(
            calls("features.roi_align"), count("features.pool_rows")),
        "trainer.assign_labels_s": total("trainer.assign_labels"),
        "trainer.assign_labels_calls": calls("trainer.assign_labels"),
        "trainer.featurize_s": own("trainer.featurize"),
        "trainer.step_ms_p50": _percentile(step_ms, 50.0),
        "trainer.step_ms_tail": _percentile(step_ms, step_tail),
        "trainer.steps_timed": len(step_ms),
        "model.backward_s": total("model.backward"),
        "model.backward_rows": count("model.backward_rows"),
        "model.sgd_step_s": total("model.sgd_step"),
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.forward_s": sum(total(n) for n in FORWARD_SPANS),
        "model.load_checkpoint_s": total("model.load_checkpoint"),
        "inference.scene_ms_p50": _percentile(scene_ms, 50.0),
        "inference.scene_ms_tail": _percentile(scene_ms, scene_tail),
        "inference.scenes_timed": len(scene_ms),
        "inference.detect_s": own("inference.detect"),
        "geometry.nms_s": total("geometry.nms"),
        "inference.nms_keep_ratio": spans.ratio(
            c["geometry.nms_kept"], c["geometry.nms_candidates"]),
        "inference.detections_per_scene": spans.ratio(
            c["inference.detections"], len(scene_ms)),
        "inference.pair_scoring_s": own("inference.score_detections"),
        "inference.pairs_scored": count("inference.pairs_scored"),
        "inference.features_share": spans.ratio(pool_in_infer, infer_s),
        "inference.pair_scoring_share": spans.ratio(
            own("inference.score_detections"), infer_s),
        "density.compat_calls": count("density.compat_calls"),
        "inference.write_predictions_s": total("inference.write_predictions"),
        "inference.read_predictions_s": total("inference.read_predictions"),
        "dataset.load_annotations_s": total("dataset.load_annotations"),
        "cli.read_feature_maps_s": total("cli.read_feature_maps"),
        "cli.read_proposals_s": total("cli.read_proposals"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.match_s": total("evaluation.match"),
        "evaluation.triplets": count("evaluation.triplets"),
        "dataset.generate_synthetic_s": total("dataset.generate_synthetic"),
    }
    tails = {"inference.scene_ms_tail": {"percentile": scene_tail,
                                         "samples": len(scene_ms)},
             "trainer.step_ms_tail": {"percentile": step_tail,
                                      "samples": len(step_ms)}}
    return metrics, tails


def _spacing_ms(tracer: spans.Tracer, name: str) -> np.ndarray:
    """Gaps between consecutive starts of ``name`` under the same parent
    span: one iteration each when ``name`` runs once per iteration."""
    starts = {}
    for n, start, parent in zip(tracer.names, tracer.starts, tracer.parents):
        if n == name:
            starts.setdefault(parent, []).append(start)
    gaps = [np.diff(v) for v in starts.values()]
    return np.concatenate(gaps) * 1e3 if gaps else np.zeros(0)


def _percentile(values: np.ndarray, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


def _total_under(tracer: spans.Tracer, name: str, ancestor: str) -> float:
    """Total duration of ``name`` spans that run inside an ``ancestor``."""
    out = 0.0
    for idx, n in enumerate(tracer.names):
        if n != name:
            continue
        parent = tracer.parents[idx]
        while parent >= 0 and tracer.names[parent] != ancestor:
            parent = tracer.parents[parent]
        if parent >= 0:
            out += tracer.ends[idx] - tracer.starts[idx]
    return out
