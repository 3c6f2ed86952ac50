"""Command-line front end: synth, train, infer, eval, baseline.

Each subcommand reads defaults, then an optional JSON config file, then
command-line flags, in increasing precedence; unknown config keys are
rejected. Every artifact embeds (or ships next to) the effective
config so a run is reproducible from its outputs alone. Errors print a
single machine-parsable line ``error: <kind>: <message>`` on stderr and
exit nonzero (2 for configuration problems, 1 for runtime failures).

The density mode decides the target-location term:
  fixed_sigma      one predicted center, fixed-width compatibility
  mdn_m1 / mdn_m2  mixture density output with 1 or 2 components
  kmeans_baseline  instance-independent cluster centers (ablation)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import zipfile

import numpy as np

from .dataset import (
    ROLE_NONE,
    ActionRegistry,
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_annotations,
    save_annotations,
)
from .density import kmeans_offsets
from .evaluation import MatchRule, evaluate_triplets, report_json, report_text
from .features import FeatureMap, SyntheticFeatureProvider
from .geometry import Box, decode_rel, encode_rel
from .inference import (
    InferenceConfig,
    InferStats,
    infer,
    read_predictions,
    write_predictions,
)
from .model import HeadConfig, forward_human, load_checkpoint
from .trainer import Phase, Quotas, Schedule, TrainingDiverged, train

DENSITY_MODES = ("fixed_sigma", "mdn_m1", "mdn_m2", "kmeans_baseline")


class CliError(Exception):
    def __init__(self, kind: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code


def _config_error(message: str) -> CliError:
    return CliError("config", message, exit_code=2)


# per-subcommand config schema: name -> default
_SYNTH_DEFAULTS = {
    "num_scenes": 40,
    "persons_per_scene": 2,
    "num_distractors": 3,
    "noise": 0.05,
    "image_size": 128.0,
    "stride": 4,
    "proposals_per_box": 2,
    "proposal_magnitude": 0.08,
    "verbs": ["carry", "throw", "sit", "cut", "stand"],
    "seed": 0,
    "out": "synth_out",
}

_TRAIN_DEFAULTS = {
    "annotations": None,
    "features": None,
    "proposals": None,
    "density_mode": "fixed_sigma",
    "pairwise_mode": "logit_sum",
    "use_interaction_branch": True,
    "share_interaction_head": False,
    "hidden_dim": 1024,
    "concat_hidden": 512,
    "sigma": 0.3,
    "sigma_floor": 0.3,
    "phases": [[10000, 1e-3], [3000, 1e-4]],
    "images_per_step": 2,
    "workers": 8,
    "momentum": 0.9,
    "weight_decay": 1e-4,
    "action_loss_weight": 2.0,
    "checkpoint_every": 0,
    "schema": "hico_like",
    "seed": 0,
    "out": "train_out",
}

_INFER_DEFAULTS = {
    "checkpoint": None,
    "annotations": None,
    "features": None,
    "proposals": None,
    "score_threshold": 0.05,
    "nms_threshold": 0.3,
    "max_triplets": 100,
    "overlay": False,
    "centers": None,
    "schema": "hico_like",
    "seed": 0,
    "out": "infer_out",
}

_EVAL_DEFAULTS = {
    "predictions": None,
    "annotations": None,
    "iou_thresh": 0.5,
    "require_object_category": False,
    "eleven_point": False,
    "schema": "hico_like",
    "seed": 0,
    "out": "eval_out",
}

_BASELINE_DEFAULTS = {
    "checkpoint": None,
    "fit_annotations": None,
    "annotations": None,
    "features": None,
    "proposals": None,
    "k": 2,
    "score_threshold": 0.05,
    "nms_threshold": 0.3,
    "max_triplets": 100,
    "schema": "hico_like",
    "seed": 0,
    "out": "baseline_out",
}

_SCHEMAS = {
    "synth": _SYNTH_DEFAULTS,
    "train": _TRAIN_DEFAULTS,
    "infer": _INFER_DEFAULTS,
    "eval": _EVAL_DEFAULTS,
    "baseline": _BASELINE_DEFAULTS,
}


def resolve_config(command: str, file_path, flag_values: dict) -> dict:
    """defaults <- config file <- explicit flags; unknown keys rejected."""
    schema = _SCHEMAS[command]
    cfg = dict(schema)
    if file_path is not None:
        try:
            with open(file_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise CliError("io", f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _config_error(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise _config_error("config file must hold a JSON object")
        for key, value in raw.items():
            if key not in schema:
                raise _config_error(
                    f"unknown config key {key!r} for {command}")
            cfg[key] = value
    for key, value in flag_values.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, *keys):
    for key in keys:
        if cfg[key] is None:
            raise _config_error(f"missing required setting {key!r}")


def _parse_phases(value):
    if isinstance(value, str):
        value = value.split(",")
    items = []
    for part in value:
        if isinstance(part, str):
            bits = part.split(":")
            if len(bits) != 2:
                raise _config_error(
                    "phases must look like '10000:0.001,3000:0.0001'")
            part = bits
        items.append(part)
    try:
        return [Phase(int(n), float(lr)) for n, lr in items]
    except (TypeError, ValueError):
        raise _config_error("phases must be [iterations, lr] pairs")


def _head_config(cfg: dict, feature_dim: int, num_actions: int,
                 num_classes: int) -> HeadConfig:
    mode = cfg["density_mode"]
    if mode not in DENSITY_MODES:
        raise _config_error(
            f"density_mode must be one of {', '.join(DENSITY_MODES)}")
    use_mdn = mode.startswith("mdn")
    density_m = 2 if mode == "mdn_m2" else 1
    try:
        return HeadConfig(
            feature_dim=feature_dim,
            num_actions=num_actions,
            num_object_classes=num_classes,
            hidden_dim=int(cfg["hidden_dim"]),
            density_M=density_m,
            use_mdn=use_mdn,
            sigma=float(cfg["sigma"]),
            sigma_floor=float(cfg["sigma_floor"]),
            use_interaction_branch=bool(cfg["use_interaction_branch"]),
            pairwise_mode=str(cfg["pairwise_mode"]),
            concat_hidden=int(cfg["concat_hidden"]),
            share_interaction_head=bool(cfg["share_interaction_head"]),
        )
    except Exception as exc:
        raise _config_error(str(exc))


def write_feature_maps(path, maps: dict) -> None:
    arrays = {}
    for image_id, fmap in maps.items():
        arrays[f"map_{image_id}"] = fmap.data
        arrays[f"stride_{image_id}"] = np.array(fmap.stride)
    np.savez(path, **arrays)


def read_feature_maps(path) -> dict:
    """Per-image maps of an ``.npz`` holding ``map_N`` arrays and their
    ``stride_N`` scalars; malformed content is a ``data`` error."""
    try:
        z = np.load(path)
    except OSError as exc:
        raise CliError("io", f"cannot read feature maps: {exc}")
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CliError("data", f"feature maps file is not an .npz archive: "
                               f"{exc}")
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise CliError("data", "feature maps file is not an .npz archive")
    maps = {}
    with z:
        for key in z.files:
            if not key.startswith("map_"):
                continue
            try:
                image_id = int(key[4:])
                stride = f"stride_{image_id}"
                if stride not in z.files:
                    raise ValueError(f"no {stride} member")
                maps[image_id] = FeatureMap(data=z[key],
                                            stride=float(z[stride]))
            except (ValueError, TypeError, zipfile.BadZipFile) as exc:
                raise CliError("data", f"feature map {key!r}: {exc}")
    return maps


def write_proposals(path, proposals: dict, config: dict) -> None:
    doc = {
        "config": config,
        "proposals": {
            str(i): [list(b.as_tuple()) for b in boxes]
            for i, boxes in proposals.items()
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def read_proposals(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CliError("io", f"cannot read proposals: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError("data", f"proposals file is not valid JSON: {exc}")
    try:
        items = doc["proposals"].items()
    except (AttributeError, KeyError, TypeError):
        raise CliError("data", "proposals file has no 'proposals' mapping")
    out = {}
    for i, boxes in items:
        try:
            out[int(i)] = [Box(*(float(v) for v in b)) for b in boxes]
        except (TypeError, ValueError) as exc:
            raise CliError("data", f"proposals for image {i}: {exc}")
    return out


def _write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_world(cfg):
    """Annotations + feature maps + proposals -> evaluation-ready pieces."""
    _require(cfg, "annotations", "features", "proposals")
    try:
        ds = load_annotations(cfg["annotations"], schema=cfg.get(
            "schema", "hico_like"))
    except OSError as exc:
        raise CliError("io", f"cannot read annotations: {exc}")
    except ValueError as exc:
        raise CliError("data", str(exc))
    maps = read_feature_maps(cfg["features"])
    proposals = read_proposals(cfg["proposals"])
    unmapped = sorted(set(proposals) - set(maps))
    if unmapped:
        raise CliError("data", f"proposals for image {unmapped[0]} have no "
                               f"feature map in {cfg['features']}")
    provider = SyntheticFeatureProvider(maps)
    return ds, provider, proposals


def cmd_synth(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    try:
        synth_cfg = SynthConfig(
            num_scenes=int(cfg["num_scenes"]),
            persons_per_scene=int(cfg["persons_per_scene"]),
            num_distractors=int(cfg["num_distractors"]),
            noise=float(cfg["noise"]),
            seed=int(cfg["seed"]),
            image_size=float(cfg["image_size"]),
            stride=int(cfg["stride"]),
            proposals_per_box=int(cfg["proposals_per_box"]),
            proposal_magnitude=float(cfg["proposal_magnitude"]),
            verbs=tuple(cfg["verbs"]),
        )
    except (TypeError, ValueError) as exc:
        raise _config_error(str(exc))
    scenes = generate_synthetic(synth_cfg)
    from .dataset import PERSON_CATEGORY, SYNTH_CATEGORIES, synthetic_registry

    ds = Dataset(registry=synthetic_registry(),
                 categories=[PERSON_CATEGORY] + SYNTH_CATEGORIES,
                 scenes=[s.annotation for s in scenes])
    save_annotations(os.path.join(out, "annotations.json"), ds)
    write_feature_maps(os.path.join(out, "features.npz"),
                       {s.annotation.image_id: s.feature_map for s in scenes})
    write_proposals(os.path.join(out, "proposals.json"),
                    {s.annotation.image_id: s.proposals for s in scenes}, cfg)
    _write_json(os.path.join(out, "synth_config.json"), cfg)
    print(f"wrote {len(scenes)} scenes to {out}")
    return 0


def cmd_train(cfg: dict) -> int:
    from .model import LossWeights
    from .trainer import TrainScene

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    ds, provider, proposals = _load_world(cfg)
    scenes = []
    for ann in ds.scenes:
        if ann.image_id not in proposals:
            raise CliError("data", f"no proposals for image {ann.image_id}")
        scenes.append(TrainScene(ann.image_id, ann, proposals[ann.image_id]))
    head_cfg = _head_config(cfg, provider.feature_dim, len(ds.registry),
                            len(ds.categories))
    schedule = Schedule(
        phases=_parse_phases(cfg["phases"]),
        images_per_step=int(cfg["images_per_step"]),
        workers=int(cfg["workers"]),
        seed=int(cfg["seed"]),
        momentum=float(cfg["momentum"]),
        weight_decay=float(cfg["weight_decay"]),
    )
    weights = LossWeights(action_cls=float(cfg["action_loss_weight"]))
    ckpt_path = os.path.join(out, "checkpoint.bin")
    try:
        params, history = train(
            scenes, provider, head_cfg, schedule, ds.registry, ds.categories,
            quotas=Quotas(), loss_weights=weights,
            log_path=os.path.join(out, "loss.log"),
            checkpoint_path=ckpt_path,
            checkpoint_every=int(cfg["checkpoint_every"]),
            actions_json=ds.registry.to_json(),
        )
    except TrainingDiverged as exc:
        raise CliError("diverged", str(exc))
    _write_json(os.path.join(out, "train_config.json"), cfg)
    print(f"trained {schedule.total_iterations} iterations; "
          f"final loss {history[-1].total:.6f}; checkpoint {ckpt_path}")
    return 0


def _load_centers(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CliError("io", f"cannot read centers: {exc}")
    return {int(k): np.asarray(v, dtype=np.float64)
            for k, v in doc["centers"].items()}


def _overlay_entry(t, provider, params, head_cfg, registry):
    entry = {
        "action": t.action,
        "role": t.role,
        "score": t.score,
        "human_box": list(t.human.box.as_tuple()),
    }
    if t.object is not None:
        entry["object_box"] = list(t.object.box.as_tuple())
        entry["object_category"] = t.object.category
        hum = forward_human(
            provider.pooled_feature(t.image_id, t.human.box), params,
            head_cfg)
        a = registry.index(t.action, t.role)
        if head_cfg.use_mdn:
            comp = int(np.argmax(hum.weights[0, a]))
        else:
            comp = 0
        mu = hum.mus[0, a, comp]
        entry["target_hint_box"] = list(
            decode_rel(mu, t.human.box).as_tuple())
    return entry


def _run_inference(cfg, ds, provider, proposals, params, head_cfg,
                   registry, centers, out):
    icfg = InferenceConfig(
        score_threshold=float(cfg["score_threshold"]),
        nms_threshold=float(cfg["nms_threshold"]),
        max_triplets=int(cfg["max_triplets"]),
    )
    all_triplets = []
    overlay = {}
    totals = InferStats()
    for image_id in sorted(proposals):
        triplets, stats = infer(image_id, proposals[image_id], provider,
                                params, head_cfg, registry, ds.categories,
                                icfg, baseline_centers=centers)
        totals.add(stats)
        all_triplets.extend(triplets)
        if cfg.get("overlay"):
            overlay[str(image_id)] = [
                _overlay_entry(t, provider, params, head_cfg, registry)
                for t in triplets
            ]
    pred_path = os.path.join(out, "predictions.jsonl")
    write_predictions(pred_path, all_triplets)
    _write_json(os.path.join(out, "infer_stats.json"),
                {"scenes": len(proposals), **dataclasses.asdict(totals)})
    if cfg.get("overlay"):
        _write_json(os.path.join(out, "overlay.json"),
                    {"config": cfg, "images": overlay})
    return pred_path, all_triplets


def cmd_infer(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _require(cfg, "checkpoint")
    ds, provider, proposals = _load_world(cfg)
    try:
        ckpt = load_checkpoint(cfg["checkpoint"])
    except OSError as exc:
        raise CliError("io", f"cannot read checkpoint: {exc}")
    except ValueError as exc:
        raise CliError("data", str(exc))
    registry = (ActionRegistry.from_json(ckpt.actions)
                if ckpt.actions else ds.registry)
    centers = _load_centers(cfg["centers"]) if cfg["centers"] else None
    pred_path, triplets = _run_inference(
        cfg, ds, provider, proposals, ckpt.params, ckpt.config, registry,
        centers, out)
    _write_json(os.path.join(out, "infer_config.json"), cfg)
    print(f"wrote {len(triplets)} triplets to {pred_path}")
    return 0


def cmd_eval(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _require(cfg, "predictions", "annotations")
    try:
        rule = MatchRule(
            iou_thresh=float(cfg["iou_thresh"]),
            require_object_category=bool(cfg["require_object_category"]),
        )
    except ValueError as exc:
        raise _config_error(str(exc))
    try:
        triplets = read_predictions(cfg["predictions"])
        ds = load_annotations(cfg["annotations"], schema=cfg["schema"])
    except OSError as exc:
        raise CliError("io", str(exc))
    except ValueError as exc:
        raise CliError("data", str(exc))
    try:
        report = evaluate_triplets(triplets, ds, rule,
                                   eleven_point=bool(cfg["eleven_point"]))
    except ValueError as exc:
        raise CliError("data", str(exc))
    text = report_text(report)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(text)
    doc = report_json(report)
    doc["config"] = cfg
    _write_json(os.path.join(out, "report.json"), doc)
    sys.stdout.write(text)
    return 0


def fit_baseline_centers(ds: Dataset, k: int, seed: int) -> dict:
    """Per-action k-means over ground-truth relative offsets."""
    offsets = {a: [] for a in range(len(ds.registry))}
    for scene in ds.scenes:
        for rec in scene.interactions:
            if rec.role == ROLE_NONE:
                continue
            a = ds.registry.index(rec.action, rec.role)
            rel = encode_rel(scene.objects[rec.object].box,
                             scene.persons[rec.person])
            offsets[a].append(rel.as_tuple())
    centers = {}
    for a, rows in offsets.items():
        if ds.registry.entries[a].role == ROLE_NONE:
            continue
        if rows:
            centers[a] = kmeans_offsets(np.asarray(rows), k, seed=seed)
        else:
            centers[a] = np.zeros((1, 4))
    return centers


def cmd_baseline(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _require(cfg, "checkpoint", "fit_annotations")
    ds, provider, proposals = _load_world(cfg)
    try:
        fit_ds = load_annotations(cfg["fit_annotations"],
                                  schema=cfg["schema"])
    except OSError as exc:
        raise CliError("io", f"cannot read fit annotations: {exc}")
    except ValueError as exc:
        raise CliError("data", str(exc))
    try:
        ckpt = load_checkpoint(cfg["checkpoint"])
    except OSError as exc:
        raise CliError("io", f"cannot read checkpoint: {exc}")
    except ValueError as exc:
        raise CliError("data", str(exc))
    registry = (ActionRegistry.from_json(ckpt.actions)
                if ckpt.actions else fit_ds.registry)
    centers = fit_baseline_centers(fit_ds, int(cfg["k"]), int(cfg["seed"]))
    _write_json(os.path.join(out, "centers.json"), {
        "config": cfg,
        "centers": {str(a): c.tolist() for a, c in centers.items()},
    })
    pred_path, triplets = _run_inference(
        cfg, ds, provider, proposals, ckpt.params, ckpt.config, registry,
        centers, out)
    rule = MatchRule()
    report = evaluate_triplets(triplets, ds, rule)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(report_text(report))
    doc = report_json(report)
    doc["config"] = cfg
    _write_json(os.path.join(out, "report.json"), doc)
    print(f"baseline predictions in {pred_path}; "
          f"mean role AP "
          f"{-1.0 if report.mean_role_ap is None else report.mean_role_ap:.4f}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "baseline": cmd_baseline,
}


def _add_flags(parser: argparse.ArgumentParser, schema: dict) -> None:
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override it")
    for key, default in schema.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            parser.add_argument(flag, default=None,
                                action=argparse.BooleanOptionalAction)
        elif isinstance(default, int):
            parser.add_argument(flag, type=int, default=None)
        elif isinstance(default, float):
            parser.add_argument(flag, type=float, default=None)
        elif isinstance(default, list):
            parser.add_argument(flag, type=str, default=None,
                                help="comma-separated")
        else:
            parser.add_argument(flag, type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoidet",
        description="human-object interaction detection toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        _add_flags(subs.add_parser(name), schema)
    return parser


def _flag_values(args: argparse.Namespace, schema: dict) -> dict:
    out = {}
    for key, default in schema.items():
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(default, list) and isinstance(value, str):
            value = value.split(",")
        out[key] = value
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    schema = _SCHEMAS[args.command]
    try:
        cfg = resolve_config(args.command, args.config,
                             _flag_values(args, schema))
        return _COMMANDS[args.command](cfg)
    except CliError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
