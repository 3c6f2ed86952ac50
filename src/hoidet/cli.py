"""Command-line front end: synth, train, infer, eval, baseline.

Each subcommand reads defaults, then an optional JSON config file, then
command-line flags, in increasing precedence; unknown config keys are
rejected. Each value must have the JSON type of its key's default
(see ``_checked``). Most keys are fields of the config dataclasses and
take their defaults from them; ``_build`` constructs the dataclass,
whose own checks refuse values out of range. Every artifact embeds (or
ships next to) the effective config so a run is reproducible from its
outputs alone. Only the invoked subcommand's flags are built. Errors
print a single machine-parsable line ``error: <kind>: <message>`` on
stderr and exit nonzero (2 for configuration problems, 1 for runtime
failures). Input readers raise ValueError for content they reject and
let OSError through; ``_read`` alone turns either into that line.

The training density mode decides the target-location term:
  fixed_sigma      one predicted center, fixed-width compatibility
  mdn_m1 / mdn_m2  mixture density output with 1 or 2 components
The instance-independent ablation (k-means cluster centers in place of
the learned density) is not a training mode: ``hoidet baseline`` fits
the centers and scores with them, and ``infer --centers`` reads them.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import tokenize
import zipfile
import zlib

import numpy as np

from .dataset import (
    _INT64,
    _NUMBERS,
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
    _typed,
    synthetic_registry,
)
from .density import kmeans_offsets
from .evaluation import MatchRule, evaluate_triplets, report_json, report_text
from .features import (
    FeatureMap,
    SyntheticFeatureProvider,
    map_buffer,
    place,
)
from .geometry import COORD_LIMIT, decode_rel, encode_rels
from .inference import (
    InferenceConfig,
    infer,
    read_predictions,
    write_predictions,
)
from .model import HeadConfig, LossWeights, load_checkpoint
from .trainer import Phase, Schedule, TrainingDiverged, TrainScene, train

DENSITY_MODES = ("fixed_sigma", "mdn_m1", "mdn_m2")


class CliError(Exception):
    def __init__(self, kind: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code


def _config_error(message: str) -> CliError:
    return CliError("config", message, exit_code=2)


def _read(what: str, read, *args, kind: str = "data", **kwargs):
    """``read(*args, **kwargs)``; an OSError is an ``io`` error naming
    ``what``, a ValueError a ``kind`` error with its message."""
    try:
        return read(*args, **kwargs)
    except OSError as exc:
        raise CliError("io", f"cannot read {what}: {exc}")
    except ValueError as exc:
        raise CliError(kind, str(exc), exit_code=2 if kind == "config" else 1)


def _json_file(path, name: str):
    """The JSON document in ``path``; any decode failure (deep nesting
    and over-long integers too) is a ValueError naming ``name``."""
    with open(path) as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{name} file is not valid JSON: {exc}") from None


def _json_mapping(path, name: str):
    """The items of the ``name`` mapping of a JSON file
    ``{"<name>": {...}}``."""
    doc = _json_file(path, name)
    try:
        return doc[name].items()
    except (AttributeError, KeyError, TypeError):
        raise ValueError(f"{name} file has no {name!r} mapping") from None


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
    "synth": {**_defaults(SynthConfig), "out": "synth_out"},
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
    """defaults <- config file <- explicit flags; unknown keys rejected,
    and each value checked by :func:`_checked`."""
    schema = _SCHEMAS[command]
    cfg = dict(schema)
    if file_path is not None:
        raw = _read("config file", _json_file, file_path, "config",
                    kind="config")
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
    return {key: _checked(key, value, schema[key])
            for key, value in cfg.items()}


def _checked(key: str, value, default):
    """``value`` if it has the JSON type of its key's ``default``, else a
    config error. A float key takes any number (as a float), an int key
    an integer (not a boolean), a path key (default null) a string or
    null, and a list key a list or a comma-separated string (as a
    list)."""
    try:
        if default is None:
            return None if value is None else _typed(value, str, key)
        if isinstance(default, list) and isinstance(value, str):
            return value.split(",")
        value = _typed(value, type(default), key)
        return float(value) if isinstance(default, float) else value
    except AnnotationError as exc:
        raise _config_error(str(exc))
    except OverflowError as exc:  # an integer no float holds
        raise _config_error(f"{key}: {exc}")


def _require(cfg: dict, *keys):
    for key in keys:
        if cfg[key] is None:
            raise _config_error(f"missing required setting {key!r}")


def _parse_phases(value: list) -> list:
    """Phases of ``"iterations:lr"`` strings or ``[iterations, lr]``
    pairs, each an integer and a number."""
    phases = []
    for part in value:
        if isinstance(part, str):
            try:
                n, lr = part.split(":")
                part = [int(n), float(lr)]
            except ValueError:
                raise _config_error(f"phases: expected 'iterations:lr', "
                                    f"got {part!r}")
        if type(part) is not list or len(part) != 2:
            raise _config_error("phases: expected [iterations, lr] pairs")
        phases.append(Phase(_checked("phases", part[0], 0),
                            _checked("phases", part[1], 0.0)))
    return phases


def _build(cls, values: dict, **given):
    """Dataclass ``cls`` from ``given`` plus each other field that
    ``values`` holds; a value the class rejects is a config error."""
    for f in dataclasses.fields(cls):
        if f.name in values and f.name not in given:
            given[f.name] = values[f.name]
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


def _npy_header(header: bytes, headers: dict) -> tuple:
    """The shape, order and dtype of a version 1.0 ``.npy`` header, given
    its bytes up to the payload; a malformed header raises ValueError.

    ``headers`` maps each header already parsed to them: the members of
    a feature file share a few headers, and parsing one is most of the
    cost of reading a small member."""
    if header not in headers:
        fp = io.BytesIO(header)
        np.lib.format.read_magic(fp)
        try:
            headers[header] = np.lib.format.read_array_header_1_0(fp)
        except (SyntaxError, tokenize.TokenError) as exc:
            # numpy retokenizes a header it cannot parse, which can raise
            raise ValueError(f"cannot parse .npy header: {exc}") from None
    return headers[header]


def _npy_array(raw, headers: dict) -> np.ndarray:
    """The array of one ``.npy`` member's bytes (any bytes-like object),
    viewed in place, its header parsed by :func:`_npy_header`. Members
    of a format version other than 1.0, the one ``np.savez`` writes, go
    through ``np.lib.format.read_array``. A malformed header, an object
    dtype or a short payload raise ValueError."""
    if raw[:8] != b"\x93NUMPY\x01\x00":
        return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    end = 10 + int.from_bytes(raw[8:10], "little")
    shape, fortran_order, dtype = _npy_header(bytes(raw[:end]), headers)
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when "
                         "allow_pickle=False")
    array = np.frombuffer(raw, dtype, count=math.prod(shape), offset=end)
    return array.reshape(shape, order="F" if fortran_order else "C")


def _stored_start(fd: int, entry: zipfile.ZipInfo) -> int | None:
    """Where a stored member's data start in the archive open as ``fd``,
    if its local header is one that ``ZipFile.open`` reads without fault
    or question (not encrypted, its name the central directory's, read
    as zipfile reads it when given no metadata encoding, as ``np.load``
    gives none); else None, and the member is left to zipfile."""
    head = os.pread(fd, 30, entry.header_offset)
    name = os.pread(fd, int.from_bytes(head[26:28], "little"),
                    entry.header_offset + 30)
    try:
        if (len(head) < 30 or head[:4] != b"PK\x03\x04"
                or entry.compress_type != zipfile.ZIP_STORED
                or entry.compress_size != entry.file_size
                # encrypted, patched or strongly encrypted
                or entry.flag_bits & 0x61
                or name != entry.orig_filename.encode(
                    "utf-8" if head[7] & 8 else "cp437")):
            return None
    except UnicodeEncodeError:
        return None
    start = (entry.header_offset + 30 + len(name)
             + int.from_bytes(head[28:30], "little"))
    # zipfile versions that record where each entry must end refuse a
    # member whose data overlap the next entry
    end = getattr(entry, "_end_offset", None)
    if end is not None and start + entry.compress_size > end:
        return None
    return start


def read_feature_maps(path) -> dict:
    """Per-image maps of an ``.npz`` holding ``map_N`` arrays and their
    ``stride_N`` scalars; malformed content raises ValueError, and so do
    an ``N`` outside the int64 range, two members naming one image
    (``map_0`` and ``map_00``) and a member whose dtype is not bool,
    integer or floating.

    The maps are held once, channel-last, in one float64 buffer, each
    map's data a (C, H, W) view of its block (see ``features.place``),
    which a ``SyntheticFeatureProvider`` then pools from as it is. The
    buffer holds one entry per element of each stored map, counted from
    its local and ``.npy`` headers (read at the central directory's
    offset), and one per byte of any other map member. Each member is
    then read once: a stored one into a scratch buffer (one reused for
    every map) and its CRC checked, any other, or one that fails there,
    through ``ZipFile.read``, which names the fault. Its array is viewed
    in place (see :func:`_npy_array`), checked and copied into the
    buffer before the next member is read."""
    maps, headers, first = {}, {}, {}
    # opened here, so that it is closed whatever np.load makes of it:
    # given a path, np.load leaves the file open when it starts like a
    # zip but is not one
    with open(path, "rb") as fh:
        try:
            z = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"feature maps file is not an .npz archive: "
                             f"{exc}") from None
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ValueError("feature maps file is not an .npz archive")
        names, files = set(z.zip.namelist()), set(z.files)
        keys = [key for key in z.files if key.startswith("map_")]
        fd = fh.fileno()
        length = os.fstat(fd).st_size  # no buffer for a member is larger

        def entry(key):
            # the archive entry np.load would read for key
            return z.zip.getinfo(key if key in names else key + ".npy")

        def elements(key):
            # a stored map's element count, read from its headers alone,
            # and at most its byte count, as a valid member's is. Any
            # other member, or one whose headers fail in any way, counts
            # its bytes: a faulty one is refused in its turn below, so
            # the first faulty member is still the one named
            e = entry(key)
            start = _stored_start(fd, e)
            if start is not None:
                head = os.pread(fd, 10, start)
                head += os.pread(fd, int.from_bytes(head[8:10], "little"),
                                 start + 10)
                try:
                    if head[6:8] == b"\x01\x00":
                        return min(math.prod(_npy_header(head, headers)[0]),
                                   e.file_size)
                except (TypeError, ValueError):
                    pass
            return e.file_size

        def member(key, scratch=None):
            # key's array, viewing scratch (a new buffer when None) if
            # the member is read there
            e = entry(key)
            start = _stored_start(fd, e)
            if start is not None:
                raw = memoryview(bytearray(min(e.file_size, length))
                                 if scratch is None else scratch)
                raw = raw[:e.file_size]
            if (start is None or os.preadv(fd, [raw], start) < e.file_size
                    or zlib.crc32(raw) != e.CRC):
                try:
                    raw = z.zip.read(e)
                except EOFError:  # the file ends within the member
                    raise zipfile.BadZipFile(f"Truncated data for file "
                                             f"{e.filename!r}") from None
            array = _npy_array(raw, headers)
            if array.dtype.kind not in "biuf":
                raise ValueError(f"{key}: dtype {array.dtype} is not bool, "
                                 f"integer or floating")
            return array

        buffer = map_buffer(sum(map(elements, keys)))
        scratch = bytearray(max((min(entry(key).file_size, length)
                                 for key in keys), default=0))
        offset = 0
        for key in keys:
            try:
                image_id = _image_id(key[4:])
                if first.setdefault(image_id, key) != key:
                    raise ValueError(f"image id {image_id} repeats "
                                     f"{first[image_id]!r}")
                stride = f"stride_{image_id}"
                if stride not in files:
                    raise ValueError(f"no {stride} member")
                fmap = FeatureMap(data=member(key, scratch),
                                  stride=float(member(stride)))
            except (ValueError, TypeError, zipfile.BadZipFile) as exc:
                raise ValueError(f"feature map {key!r}: {exc}") from None
            fmap.data = place(buffer, offset, fmap.data)
            offset += fmap.data.size
            maps[image_id] = fmap
    return maps


def write_proposals(path, proposals: dict, config: dict) -> None:
    """Write ``proposals.json`` as the bytes ``json.dump`` writes, from
    each image's ``(N, 4)`` box array. Each image's boxes are encoded
    and written on their own, so the document is never held whole."""
    encode = json.JSONEncoder().encode
    with open(path, "w") as f:
        f.write(f'{{"config": {encode(config)}, "proposals": {{')
        for k, (i, boxes) in enumerate(proposals.items()):
            f.write(f'{", " if k else ""}{encode(str(i))}: '
                    f'{encode(boxes.tolist())}')
        f.write("}}\n")


def _image_id(text: str) -> int:
    """The image id an ``int`` parse of ``text`` gives; ValueError unless
    it lies in the int64 range."""
    image_id = int(text)
    if image_id not in _INT64:
        raise ValueError("image id outside the int64 range")
    return image_id


def read_proposals(path) -> dict:
    """Per-image ``(N, 4)`` float64 box arrays of a ``proposals.json``;
    malformed content raises ValueError, and so do an image id outside
    the int64 range and two keys naming one image (``"0"`` and
    ``"00"``)."""
    out, first = {}, {}
    for i, rows in _json_mapping(path, "proposals"):
        try:
            image_id = _image_id(i)
            if first.setdefault(image_id, i) != i:
                raise ValueError(f"image id {image_id} repeats key "
                                 f"{first[image_id]!r}")
            out[image_id] = _box_rows(rows)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"proposals for image {i}: {exc}") from None
    return out


def _box_rows(rows) -> np.ndarray:
    """(N, 4) array of a JSON list of ``[x1, y1, x2, y2]`` rows, checked
    in one pass: each row is a list of four numbers (not booleans), and
    each box has corners of magnitude at most ``COORD_LIMIT`` and
    positive width and height (so no NaN)."""
    if (type(rows) is not list or not {list}.issuperset(map(type, rows))
            or not {4}.issuperset(map(len, rows))
            or not _NUMBERS.issuperset(
                map(type, itertools.chain.from_iterable(rows)))):
        raise ValueError("expected a list of [x1, y1, x2, y2] rows of "
                         "numbers")
    boxes = np.array(rows, dtype=np.float64).reshape(-1, 4)
    bad = np.flatnonzero(~((boxes[:, 2] > boxes[:, 0])
                           & (boxes[:, 3] > boxes[:, 1])
                           & (np.abs(boxes) <= COORD_LIMIT).all(axis=1)))
    if len(bad):
        box = boxes[bad[0]]
        what = ("non-finite" if np.isinf(box).any()
                else "degenerate" if not (box[2] > box[0] and box[3] > box[1])
                else f"out-of-range (|corner| > {COORD_LIMIT:g})")
        raise ValueError(f"{what} box: {tuple(box.tolist())}")
    return boxes


def _write_json(path, doc) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_world(cfg):
    """Annotations + feature maps + proposals -> evaluation-ready pieces."""
    _require(cfg, "annotations", "features", "proposals")
    ds = _read("annotations", load_annotations, cfg["annotations"],
               schema=cfg["schema"])
    maps = _read("feature maps", read_feature_maps, cfg["features"])
    proposals = _read("proposals", read_proposals, cfg["proposals"])
    unmapped = sorted(set(proposals) - set(maps))
    if unmapped:
        raise CliError("data", f"proposals for image {unmapped[0]} have no "
                               f"feature map in {cfg['features']}")
    try:
        provider = SyntheticFeatureProvider(maps)
    except ValueError as exc:  # maps of different channel counts
        raise CliError("data", f"{cfg['features']}: {exc}")
    return ds, provider, proposals


def cmd_synth(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    try:
        scenes = generate_synthetic(_build(SynthConfig, cfg))
    except RuntimeError as exc:  # a scene its people do not fit in
        raise _config_error(str(exc))
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
    schedule = _build(Schedule, cfg, phases=_parse_phases(cfg["phases"]))
    if cfg["checkpoint_every"] < 0:
        raise _config_error(f"checkpoint_every must be nonnegative, got "
                            f"{cfg['checkpoint_every']}")
    weights = _build(LossWeights, {"action_cls": cfg["action_loss_weight"]})
    ds, provider, proposals = _load_world(cfg)
    scenes = []
    for ann in ds.scenes:
        if ann.image_id not in proposals:
            raise CliError("data", f"no proposals for image {ann.image_id}")
        scenes.append(TrainScene(ann, proposals[ann.image_id]))
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
            checkpoint_every=cfg["checkpoint_every"],
        )
    except TrainingDiverged as exc:
        raise CliError("diverged", str(exc))
    except AnnotationError as exc:  # no scenes, or categories missing
        raise CliError("data", str(exc))
    _write_json(os.path.join(out, "train_config.json"), cfg)
    print(f"trained {schedule.total_iterations} iterations; "
          f"final loss {history[-1].total:.6f}; checkpoint {ckpt_path}")
    return 0


def _load_model(path, registry: ActionRegistry, categories, provider):
    """The checkpoint at ``path`` and its action registry: the one it
    stores, else ``registry``. Unreadable or malformed files are ``io``
    and ``data`` errors, and so is a checkpoint whose feature width,
    action count or object class count differs from the pooled width of
    ``provider``'s maps, the registry's length or that of
    ``categories``."""
    ckpt = _read("checkpoint", load_checkpoint, path)
    if ckpt.actions:
        registry = _read("checkpoint", ActionRegistry.from_json, ckpt.actions)
    head = ckpt.config
    if provider.maps and head.feature_dim != provider.feature_dim:
        raise CliError("data", f"{path}: checkpoint feature_dim "
                               f"{head.feature_dim} does not match "
                               f"the feature maps' pooled width "
                               f"{provider.feature_dim}")
    if head.num_actions != len(registry):
        raise CliError("data", f"{path}: checkpoint num_actions "
                               f"{head.num_actions} does not match the "
                               f"{len(registry)} actions of the annotations")
    if head.num_object_classes != len(categories):
        raise CliError("data", f"{path}: checkpoint num_object_classes "
                               f"{head.num_object_classes} does not match "
                               f"the {len(categories)} categories of the "
                               f"annotations")
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
    content raises ValueError, and so do a key that names no action of
    ``registry`` and two keys naming one action (``"0"`` and ``"00"``)."""
    out, first = {}, {}
    for key, value in _json_mapping(path, "centers"):
        try:
            action = int(key)
            if first.setdefault(action, key) != key:
                raise ValueError(f"action {action} repeats key "
                                 f"{first[action]!r}")
            if action not in range(len(registry)):
                raise ValueError(f"no action {action} among the "
                                 f"{len(registry)} actions of the registry")
            centers = np.asarray(value, dtype=np.float64)
            if (centers.ndim != 2 or centers.shape[0] < 1
                    or centers.shape[1] != 4):
                raise ValueError(f"need a (K, 4) array with K >= 1, got "
                                 f"shape {centers.shape}")
            if not np.all(np.isfinite(centers)):
                raise ValueError("non-finite entry")
            if not all(_NUMBERS.issuperset(map(type, row)) for row in value):
                raise ValueError("entries must be numbers, not booleans or "
                                 "strings")
            out[action] = centers
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"centers for action {key!r}: {exc}") from None
    for a, entry in enumerate(registry):
        if entry.role != ROLE_NONE and a not in out:
            raise ValueError(f"centers file has no centers for action {a} "
                             f"({entry.name}/{entry.role})")
    return out


def _overlay_entry(t):
    entry = {
        "action": t.action,
        "role": t.role,
        "score": t.score,
        "human_box": list(t.human.box.as_tuple()),
    }
    if t.object is not None:
        entry["object_box"] = list(t.object.box.as_tuple())
        entry["object_category"] = t.object.category
        entry["target_hint_box"] = list(
            decode_rel(t.target_mean, t.human.box).as_tuple())
    return entry


def _run_inference(cfg, ds, provider, proposals, params, head_cfg,
                   registry, centers, out):
    icfg = _build(InferenceConfig, cfg)
    ids = sorted(proposals)
    boxes = [proposals[i] for i in ids]
    triplets, totals = infer(
        np.repeat(np.array(ids, dtype=np.int64), [len(b) for b in boxes]),
        np.concatenate(boxes) if boxes else np.zeros((0, 4)), provider,
        params, head_cfg, registry, ds.categories, icfg,
        baseline_centers=centers)
    pred_path = os.path.join(out, "predictions.jsonl")
    write_predictions(pred_path, triplets)
    _write_json(os.path.join(out, "infer_stats.json"),
                {"scenes": len(proposals), **dataclasses.asdict(totals)})
    if cfg.get("overlay"):
        overlay = {str(i): [] for i in ids}
        for t in triplets:
            overlay[str(t.image_id)].append(_overlay_entry(t))
        _write_json(os.path.join(out, "overlay.json"),
                    {"config": cfg, "images": overlay})
    return pred_path, triplets


def cmd_infer(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _require(cfg, "checkpoint")
    ds, provider, proposals = _load_world(cfg)
    ckpt, registry = _load_model(cfg["checkpoint"], ds.registry,
                                 ds.categories, provider)
    centers = (_read("centers", _load_centers, cfg["centers"], registry)
               if cfg["centers"] else None)
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
    triplets = _read("predictions", read_predictions, cfg["predictions"])
    ds = _read("annotations", load_annotations, cfg["annotations"],
               schema=cfg["schema"])
    try:
        report = evaluate_triplets(triplets, ds, rule,
                                   eleven_point=cfg["eleven_point"])
    except ValueError as exc:
        raise CliError("data", str(exc))
    sys.stdout.write(_write_report(out, report, cfg))
    return 0


def fit_baseline_centers(ds: Dataset, k: int, seed: int,
                         reduced: list | None = None) -> dict:
    """Per-action k-means over ground-truth relative offsets: each typed
    record's object box encoded relative to its person box, gathered
    from the scenes' box arrays in file order. An action with n < k
    offsets gets n centers, and when ``reduced`` is a list, its registry
    entry and n are appended to it."""
    actions, targets, persons = [], [], []
    for scene in ds.scenes:
        for rec in scene.interactions:
            if rec.role != ROLE_NONE:
                actions.append(ds.registry.index(rec.action, rec.role))
                targets.append(scene.objects[rec.object])
                persons.append(scene.persons[rec.person])
    actions = np.array(actions, dtype=int)
    offsets = encode_rels(np.reshape(targets, (-1, 4)),
                          np.reshape(persons, (-1, 4)))
    centers = {}
    for a, entry in enumerate(ds.registry):
        if entry.role == ROLE_NONE:
            continue
        rows = offsets[actions == a]
        centers[a] = (kmeans_offsets(rows, k, seed=seed) if len(rows)
                      else np.zeros((1, 4)))
        if len(rows) and len(centers[a]) < k and reduced is not None:
            reduced.append((entry, len(centers[a])))
    return centers


def cmd_baseline(cfg: dict) -> int:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _require(cfg, "checkpoint", "fit_annotations")
    k, seed = cfg["k"], cfg["seed"]
    if k < 1:
        raise _config_error(f"k must be positive, got {k}")
    if seed < 0:
        raise _config_error(f"seed must be nonnegative, got {seed}")
    ds, provider, proposals = _load_world(cfg)
    fit_ds = _read("fit annotations", load_annotations,
                   cfg["fit_annotations"], schema=cfg["schema"])
    ckpt, registry = _load_model(cfg["checkpoint"], fit_ds.registry,
                                 ds.categories, provider)
    reduced = []
    centers = fit_baseline_centers(fit_ds, k, seed, reduced)
    for entry, n in reduced:
        print(f"action {entry.key}: only {n} offsets for k={k}; "
              f"fit {n} centers")
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejection of the command line is a
    ``config`` error, not a usage block and ``SystemExit``."""

    def error(self, message):
        raise _config_error(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``hoidet`` parser. Every subcommand is listed, but only
    ``command``'s flags are added when it names one: a command parses
    only its own flags, and building the others' is wasted work."""
    parser = _Parser(
        prog="hoidet",
        description="human-object interaction detection toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        sub = subs.add_parser(name)
        if command not in _SCHEMAS or name == command:
            _add_flags(sub, schema)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        cfg = resolve_config(args.command, args.config, {
            key: getattr(args, key) for key in _SCHEMAS[args.command]})
        return _COMMANDS[args.command](cfg)
    except CliError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
