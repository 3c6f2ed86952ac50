"""Command-line front end: synth, train, infer, eval, baseline.

Each subcommand reads defaults, then an optional JSON config file, then
command-line flags, in increasing precedence; unknown config keys are
rejected. Most keys are fields of the config dataclasses and take
their defaults from them; ``_build`` converts each to its default's
type and constructs the dataclass. Every artifact embeds (or ships next
to) the effective config so a run is reproducible from its outputs
alone. Errors print a single machine-parsable line
``error: <kind>: <message>`` on stderr and exit nonzero (2 for
configuration problems, 1 for runtime failures).

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
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    ActionRegistry,
    AnnotationError,
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_annotations,
    save_annotations,
    synthetic_registry,
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
from .model import HeadConfig, LossWeights, forward_human, load_checkpoint
from .trainer import Phase, Schedule, TrainingDiverged, TrainScene, train

DENSITY_MODES = ("fixed_sigma", "mdn_m1", "mdn_m2", "kmeans_baseline")


class CliError(Exception):
    def __init__(self, kind: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code


def _config_error(message: str) -> CliError:
    return CliError("config", message, exit_code=2)


def _field_default(field: dataclasses.Field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def _defaults(cls, *names) -> dict:
    """Config keys for fields ``names`` (default: every field) of
    dataclass ``cls``, each with its default in JSON form."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    return {name: json.loads(json.dumps(_field_default(fields[name]),
                                        default=dataclasses.astuple))
            for name in names or fields}


# per-subcommand config schema: name -> default. Dataclass fields take
# their defaults from the dataclass; the literals are CLI-only settings.
_INPUTS = {"annotations": None, "features": None, "proposals": None}

_SCHEMAS = {
    "synth": {
        **_defaults(SynthConfig, "num_scenes", "persons_per_scene",
                    "num_distractors", "noise", "image_size", "stride",
                    "proposals_per_box", "proposal_magnitude", "verbs",
                    "seed"),
        "out": "synth_out",
    },
    "train": {
        **_INPUTS,
        "density_mode": "fixed_sigma",
        **_defaults(HeadConfig, "pairwise_mode", "use_interaction_branch",
                    "share_interaction_head", "hidden_dim", "concat_hidden",
                    "sigma", "sigma_floor"),
        **_defaults(Schedule),
        "action_loss_weight": _defaults(LossWeights)["action_cls"],
        "checkpoint_every": 0,
        "schema": "hico_like",
        "out": "train_out",
    },
    "infer": {
        "checkpoint": None,
        **_INPUTS,
        **_defaults(InferenceConfig),
        "overlay": False,
        "centers": None,
        "schema": "hico_like",
        "out": "infer_out",
    },
    "eval": {
        "predictions": None,
        "annotations": None,
        **_defaults(MatchRule),
        "eleven_point": False,
        "schema": "hico_like",
        "out": "eval_out",
    },
    "baseline": {
        "checkpoint": None,
        "fit_annotations": None,
        **_INPUTS,
        "k": 2,
        **_defaults(InferenceConfig),
        "schema": "hico_like",
        "seed": 0,
        "out": "baseline_out",
    },
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
                    "phases must look like '2000:0.001,500:0.0001'")
            part = bits
        items.append(part)
    try:
        return [Phase(int(n), float(lr)) for n, lr in items]
    except (TypeError, ValueError):
        raise _config_error("phases must be [iterations, lr] pairs")


def _convert(key: str, value, kind):
    """``kind(value)``; a value ``kind`` rejects is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise _config_error(f"{key}: {exc}")


def _build(cls, values: dict, **given):
    """Dataclass ``cls`` from ``given`` plus each other field that
    ``values`` holds, converted to the type of the field's default
    (``phases`` by :func:`_parse_phases`); a value the conversion or the
    class rejects is a config error."""
    for f in dataclasses.fields(cls):
        if f.name in values and f.name not in given:
            kind = (_parse_phases if f.name == "phases"
                    else type(_field_default(f)))
            given[f.name] = _convert(f.name, values[f.name], kind)
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
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
        ds = load_annotations(cfg["annotations"], schema=cfg["schema"])
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
    scenes = generate_synthetic(_build(SynthConfig, cfg))
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
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    mode = cfg["density_mode"]
    if mode not in DENSITY_MODES:
        raise _config_error(
            f"density_mode must be one of {', '.join(DENSITY_MODES)}")
    schedule = _build(Schedule, cfg)
    weights = _build(LossWeights, {"action_cls": cfg["action_loss_weight"]})
    checkpoint_every = _convert("checkpoint_every", cfg["checkpoint_every"],
                                int)
    ds, provider, proposals = _load_world(cfg)
    scenes = []
    for ann in ds.scenes:
        if ann.image_id not in proposals:
            raise CliError("data", f"no proposals for image {ann.image_id}")
        scenes.append(TrainScene(ann.image_id, ann, proposals[ann.image_id]))
    head_cfg = _build(HeadConfig, cfg, feature_dim=provider.feature_dim,
                      num_actions=len(ds.registry),
                      num_object_classes=len(ds.categories),
                      density_M=2 if mode == "mdn_m2" else 1,
                      use_mdn=mode.startswith("mdn"))
    ckpt_path = os.path.join(out, "checkpoint.bin")
    try:
        params, history = train(
            scenes, provider, head_cfg, schedule, ds.registry, ds.categories,
            loss_weights=weights,
            log_path=os.path.join(out, "loss.log"),
            checkpoint_path=ckpt_path,
            checkpoint_every=checkpoint_every,
            actions_json=ds.registry.to_json(),
        )
    except TrainingDiverged as exc:
        raise CliError("diverged", str(exc))
    except AnnotationError as exc:  # no scenes, or categories missing
        raise CliError("data", str(exc))
    _write_json(os.path.join(out, "train_config.json"), cfg)
    print(f"trained {schedule.total_iterations} iterations; "
          f"final loss {history[-1].total:.6f}; checkpoint {ckpt_path}")
    return 0


def _load_model(path, registry: ActionRegistry):
    """The checkpoint at ``path`` and its action registry: the one it
    stores, else ``registry``. Unreadable or malformed files are ``io``
    and ``data`` errors."""
    try:
        ckpt = load_checkpoint(path)
        if ckpt.actions:
            registry = ActionRegistry.from_json(ckpt.actions)
    except OSError as exc:
        raise CliError("io", f"cannot read checkpoint: {exc}")
    except ValueError as exc:
        raise CliError("data", str(exc))
    return ckpt, registry


def _write_report(out, report, cfg) -> str:
    """``report.txt``, and ``report.json`` with ``cfg``, in ``out``;
    returns the text."""
    text = report_text(report)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(text)
    _write_json(os.path.join(out, "report.json"),
                {**report_json(report), "config": cfg})
    return text


def _load_centers(path, registry: ActionRegistry):
    """Per-action-index (K, 4) cluster centers of a ``centers.json``, one
    entry for each action of ``registry`` that has a target; malformed
    content is a ``data`` error."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CliError("io", f"cannot read centers: {exc}")
    except ValueError as exc:
        raise CliError("data", f"centers file is not valid JSON: {exc}")
    try:
        items = doc["centers"].items()
    except (AttributeError, KeyError, TypeError):
        raise CliError("data", "centers file has no 'centers' mapping")
    out = {}
    for key, value in items:
        try:
            centers = np.asarray(value, dtype=np.float64)
            if (centers.ndim != 2 or centers.shape[0] < 1
                    or centers.shape[1] != 4):
                raise ValueError(f"need a (K, 4) array with K >= 1, got "
                                 f"shape {centers.shape}")
            if not np.all(np.isfinite(centers)):
                raise ValueError("non-finite entry")
            out[int(key)] = centers
        except (TypeError, ValueError) as exc:
            raise CliError("data", f"centers for action {key!r}: {exc}")
    for a, entry in enumerate(registry):
        if entry.role != ROLE_NONE and a not in out:
            raise CliError("data", f"centers file has no centers for action "
                                   f"{a} ({entry.name}/{entry.role})")
    return out


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
    icfg = _build(InferenceConfig, cfg)
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
    ckpt, registry = _load_model(cfg["checkpoint"], ds.registry)
    centers = (_load_centers(cfg["centers"], registry) if cfg["centers"]
               else None)
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
    rule = _build(MatchRule, cfg)
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
    sys.stdout.write(_write_report(out, report, cfg))
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
    k = _convert("k", cfg["k"], int)
    if k < 1:
        raise _config_error(f"k must be positive, got {k}")
    seed = _convert("seed", cfg["seed"], int)
    ds, provider, proposals = _load_world(cfg)
    try:
        fit_ds = load_annotations(cfg["fit_annotations"],
                                  schema=cfg["schema"])
    except OSError as exc:
        raise CliError("io", f"cannot read fit annotations: {exc}")
    except ValueError as exc:
        raise CliError("data", str(exc))
    ckpt, registry = _load_model(cfg["checkpoint"], fit_ds.registry)
    centers = fit_baseline_centers(fit_ds, k, seed)
    _write_json(os.path.join(out, "centers.json"), {
        "config": cfg,
        "centers": {str(a): c.tolist() for a, c in centers.items()},
    })
    pred_path, triplets = _run_inference(
        cfg, ds, provider, proposals, ckpt.params, ckpt.config, registry,
        centers, out)
    report = evaluate_triplets(triplets, ds, MatchRule())
    _write_report(out, report, cfg)
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
