import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hoidet
from hoidet.cli import (
    _COMMANDS,
    _SCHEMAS,
    CliError,
    main,
    read_feature_maps,
    read_proposals,
    resolve_config,
    write_proposals,
)
from hoidet.dataset import (
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    ActionRegistry,
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_annotations,
    save_annotations,
    synthetic_registry,
)
from hoidet.density import DEFAULT_SIGMA
from hoidet.features import SyntheticFeatureProvider
from hoidet.geometry import Box, box_array, decode_rel
from hoidet.inference import infer, read_predictions
from hoidet.model import load_checkpoint


def _run(*argv):
    return main(list(argv))


def _synth(tmp_path, seed=0, scenes=6, name="data"):
    out = tmp_path / name
    code = _run("synth", "--out", str(out), "--seed", str(seed),
                "--num-scenes", str(scenes), "--persons-per-scene", "1",
                "--num-distractors", "1", "--proposals-per-box", "1")
    assert code == 0
    return out


def _train(tmp_path, data, seed=0, name="run", phases="20:0.001",
           extra=()):
    out = tmp_path / name
    code = _run("train", "--out", str(out),
                "--annotations", str(data / "annotations.json"),
                "--features", str(data / "features.npz"),
                "--proposals", str(data / "proposals.json"),
                "--phases", phases, "--hidden-dim", "48",
                "--workers", "2", "--seed", str(seed), *extra)
    assert code == 0
    return out


def _infer(tmp_path, data, run, name="preds", extra=()):
    out = tmp_path / name
    code = _run("infer", "--out", str(out),
                "--checkpoint", str(run / "checkpoint.bin"),
                "--annotations", str(data / "annotations.json"),
                "--features", str(data / "features.npz"),
                "--proposals", str(data / "proposals.json"), *extra)
    assert code == 0
    return out


class TestResolveConfig:
    def test_defaults_file_flags_precedence(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"num_scenes": 9, "seed": 5}))
        cfg = resolve_config("synth", str(cfg_file), {"seed": 7})
        assert cfg["num_scenes"] == 9   # from file
        assert cfg["seed"] == 7         # flag beats file
        assert cfg["stride"] == 4       # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"num_scene": 9}))
        with pytest.raises(CliError) as err:
            resolve_config("synth", str(cfg_file), {})
        assert err.value.exit_code == 2
        assert "num_scene" in str(err.value)

    def test_bad_json_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text("{nope")
        with pytest.raises(CliError):
            resolve_config("synth", str(cfg_file), {})

    def test_config_not_utf8_is_one_config_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_bytes(b'{"seed": "\xff"}')
        assert _run("synth", "--out", str(tmp_path / "s"), "--config",
                    str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: config file is not valid "
                              "JSON: ")
        assert err.count("\n") == 1


class TestSynthCommand:
    def test_writes_artifacts(self, tmp_path):
        out = _synth(tmp_path)
        for name in ("annotations.json", "features.npz", "proposals.json",
                     "synth_config.json"):
            assert (out / name).exists(), name
        ds = load_annotations(out / "annotations.json", schema="hico_like")
        assert len(ds.scenes) == 6
        doc = json.loads((out / "proposals.json").read_text())
        assert doc["config"]["num_scenes"] == 6
        assert len(doc["proposals"]) == 6

    def test_deterministic(self, tmp_path):
        a = _synth(tmp_path, seed=3, name="a")
        b = _synth(tmp_path, seed=3, name="b")
        assert (a / "annotations.json").read_bytes() == \
            (b / "annotations.json").read_bytes()
        za = np.load(a / "features.npz")
        zb = np.load(b / "features.npz")
        assert sorted(za.files) == sorted(zb.files)
        for key in za.files:
            assert np.array_equal(za[key], zb[key])

    def test_confusers_per_target(self, tmp_path):
        """The flag reaches the generator: the annotations are those of
        ``generate_synthetic`` with it, byte for byte."""
        out = tmp_path / "c"
        assert _run("synth", "--out", str(out), "--num-scenes", "3",
                    "--seed", "2", "--confusers-per-target", "1") == 0
        cfg = SynthConfig(num_scenes=3, seed=2, confusers_per_target=1)
        want = tmp_path / "want.json"
        save_annotations(want, Dataset(
            synthetic_registry(), [PERSON_CATEGORY] + SYNTH_CATEGORIES,
            [s.annotation for s in generate_synthetic(cfg)]))
        assert (out / "annotations.json").read_bytes() == want.read_bytes()
        plain = generate_synthetic(dataclasses.replace(
            cfg, confusers_per_target=0))
        assert sum(len(s.annotation.objects) for s in plain) < sum(
            len(s.annotation.objects) for s in generate_synthetic(cfg))

    def test_json_files_are_those_of_json_dump(self, tmp_path):
        """Each JSON file, encoded as one string, holds the bytes that
        ``json.dump`` writes with the same options."""
        out = _synth(tmp_path)
        for name, options in (("annotations.json", dict(indent=1)),
                              ("proposals.json", {}),
                              ("synth_config.json",
                               dict(indent=2, sort_keys=True))):
            raw = (out / name).read_text()
            dumped = io.StringIO()
            json.dump(json.loads(raw), dumped, **options)
            assert raw == dumped.getvalue() + "\n", name

    @pytest.mark.parametrize("proposals", [{}, {3: np.array([[1., 2, 3, 4]])}])
    def test_small_proposals_files_are_those_of_json_dump(self, tmp_path,
                                                          proposals):
        path = tmp_path / "proposals.json"
        write_proposals(path, proposals, {"seed": 1})
        want = {"config": {"seed": 1},
                "proposals": {str(i): boxes.tolist()
                              for i, boxes in proposals.items()}}
        assert path.read_text() == json.dumps(want) + "\n"

    def test_a_degenerate_jittered_proposal_is_config_error(self, tmp_path,
                                                            capsys):
        """At 1e17 a box's corners are 16 apart at best, so a wide jitter
        makes copies whose corners round together; the same scenes at
        the default magnitude are written."""
        argv = ("synth", "--out", str(tmp_path / "x"), "--num-scenes", "2",
                "--image-size", "1e17", "--stride", "1000000000000000")
        assert _run(*argv, "--proposal-magnitude", "5") == 2
        assert capsys.readouterr().err == (
            "error: config: scene 0: a jittered proposal's corners round "
            "together; lower image_size or proposal_magnitude\n")
        assert _run(*argv) == 0

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        code = _run("synth", "--out", str(tmp_path / "x"),
                    "--num-scenes", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1


class TestTrainCommand:
    def test_trains_and_writes(self, tmp_path):
        data = _synth(tmp_path)
        run = _train(tmp_path, data)
        assert (run / "checkpoint.bin").exists()
        assert (run / "train_config.json").exists()
        log = (run / "loss.log").read_text().strip().split("\n")
        assert log[0].startswith("iteration lr total")
        assert len(log) == 21

    def test_missing_inputs(self, tmp_path, capsys):
        code = _run("train", "--out", str(tmp_path / "run"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_nonexistent_annotations(self, tmp_path, capsys):
        code = _run("train", "--out", str(tmp_path / "run"),
                    "--annotations", str(tmp_path / "nope.json"),
                    "--features", str(tmp_path / "nope.npz"),
                    "--proposals", str(tmp_path / "nope2.json"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: io:")

    def test_bad_density_mode(self, tmp_path, capsys):
        data = _synth(tmp_path)
        code = _run("train", "--out", str(tmp_path / "run"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"),
                    "--density-mode", "banana")
        assert code == 2
        assert "density_mode" in capsys.readouterr().err

    def test_kmeans_baseline_is_not_a_training_mode(self, tmp_path, capsys):
        # the k-means ablation is `hoidet baseline` / `infer --centers`
        data = _synth(tmp_path)
        code = _run("train", "--out", str(tmp_path / "run"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"),
                    "--density-mode", "kmeans_baseline")
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: config: density_mode must be one of "
                       "fixed_sigma, mdn_m1, mdn_m2\n")
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_divergence_reported(self, tmp_path, capsys):
        data = _synth(tmp_path)
        code = _run("train", "--out", str(tmp_path / "run"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"),
                    "--phases", "60:1000000.0", "--hidden-dim", "48",
                    "--workers", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: diverged:") and "iteration" in err
        assert err.count("\n") == 1  # no numpy warning beside it

    @pytest.mark.parametrize("flag, value, name", [
        ("--momentum", "1e300", "momentum"),
        ("--weight-decay", "1e300", "weight_decay"),
        ("--phases", "2:1e300", "phases"),
        ("--phases", "2:1e39", "phases"),
        ("--phases", "1:0.001,1:1e39", "phases"),
        ("--action-loss-weight", "1e300", "action_cls"),
    ], ids=["momentum", "weight_decay", "rate", "rate_1e39", "second_rate",
            "action_loss_weight"])
    def test_parameters_beyond_float32_are_config_errors(
            self, tmp_path, capsys, flag, value, name):
        """Finite in float64 but infinite in float32, the precision train
        holds and checkpoints store: each such setting once ended in a
        divergence that blamed a parameter or a gradient. It is refused
        as a config error naming the setting and its value, before
        training starts."""
        data = _synth(tmp_path, scenes=3)
        capsys.readouterr()
        code = _run("train", "--out", str(tmp_path / "run"), *_inputs(data),
                    "--phases", "2:0.001", "--hidden-dim", "8", flag, value)
        assert code == 2
        number = float(value.split(":")[-1])
        assert capsys.readouterr().err == (
            f"error: config: {name} {number!r} is beyond float32's largest "
            f"value {float(np.finfo(np.float32).max)!r}\n")
        assert not (tmp_path / "run" / "loss.log").exists()
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_features_beyond_float32_are_divergence(self, tmp_path, capsys):
        """Map cells finite in float64 but beyond float32: the pooled
        rows are infinities once training rounds them to its float32
        parameters, and the first loss names that, with no warning."""
        data = _synth(tmp_path, scenes=3)
        with np.load(data / "features.npz") as z:
            arrays = {key: np.full_like(value, 1e39)
                      if key.startswith("map_") else value
                      for key, value in z.items()}
        np.savez(data / "features.npz", **arrays)
        code = _run("train", "--out", str(tmp_path / "run"), *_inputs(data),
                    "--phases", "2:0.001", "--hidden-dim", "8")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: diverged: iteration 0: non-finite loss term "
            "object_cls_loss\n")
        assert not (tmp_path / "run" / "checkpoint.bin").exists()


    def _train_on(self, tmp_path, capsys, edit):
        """Exit code and stderr of a train run on edited annotations."""
        data = _synth(tmp_path)
        doc = json.loads((data / "annotations.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = _run("train", "--out", str(tmp_path / "run"),
                    "--annotations", str(path),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"),
                    "--phases", "2:0.001", "--workers", "2")
        return code, capsys.readouterr().err

    def test_zero_scenes_is_data_error(self, tmp_path, capsys):
        code, err = self._train_on(tmp_path, capsys,
                                   lambda doc: doc.update(scenes=[]))
        assert code == 1
        assert err == "error: data: training needs at least one scene\n"

    def test_categories_without_person_are_data_error(self, tmp_path,
                                                      capsys):
        def drop_person(doc):
            doc["categories"].remove("person")

        code, err = self._train_on(tmp_path, capsys, drop_person)
        assert code == 1
        assert err == 'error: data: categories must include "person"\n'
        # rejected while the labels are built, before iteration 0
        assert not (tmp_path / "run" / "loss.log").exists()

    def test_unknown_object_category_is_data_error(self, tmp_path, capsys):
        def only_person(doc):
            doc["categories"] = ["person"]

        code, err = self._train_on(tmp_path, capsys, only_person)
        assert code == 1
        assert err.startswith("error: data: scene 0: object category ")
        assert err.endswith(" is not a training category\n")


class TestCentersFile:
    """``hoidet infer --centers`` on a malformed file: one data error."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("centers")
        data = _synth(tmp)
        return tmp, data, _train(tmp, data)

    @pytest.mark.parametrize("content, message", [
        ("{not json", "centers file is not valid JSON: "),
        ("[1]", "centers file has no 'centers' mapping"),
        ('{"centers": [1]}', "centers file has no 'centers' mapping"),
        ('{"centers": {"x": [[0, 0, 0, 0]]}}',
         "centers for action 'x': invalid literal for int()"),
        ('{"centers": {"0": [[1, 2, 3]]}}',
         "centers for action '0': need a (K, 4) array with K >= 1, got "
         "shape (1, 3)"),
        ('{"centers": {"0": []}}',
         "centers for action '0': need a (K, 4) array with K >= 1, got "
         "shape (0,)"),
        ('{"centers": {"0": [[0, 0, "a", 0]]}}',
         "centers for action '0': could not convert"),
        ('{"centers": {"0": [[0, 0, NaN, 0]]}}',
         "centers for action '0': non-finite entry"),
        ('{"centers": {"0": [[0, 0, 0, 0]]}}',
         "centers file has no centers for action 1 (throw/object)"),
        ('{"centers": {"0": [[1%s, 0, 0, 0]]}}' % ("0" * 400),
         "centers for action '0': int too large to convert to float\n"),
        ('{"centers": {"0": [[true, 0, 0, 0]]}}',
         "centers for action '0': entries must be numbers, not booleans "
         "or strings\n"),
        ('{"centers": {"0": [["1", 0, 0, 0]]}}',
         "centers for action '0': entries must be numbers, not booleans "
         "or strings\n"),
    ], ids=["not_json", "top_level_list", "centers_not_mapping",
            "non_integer_key", "three_columns", "no_rows", "not_a_number",
            "nan", "missing_action", "huge_integer", "boolean",
            "numeric_string"])
    def test_malformed(self, world, capsys, content, message):
        tmp, data, run = world
        path = tmp / "centers.json"
        path.write_text(content)
        capsys.readouterr()
        code = _run("infer", "--out", str(tmp / "o"),
                    "--checkpoint", str(run / "checkpoint.bin"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"),
                    "--centers", str(path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: data: " + message)
        assert err.count("\n") == 1


class TestInferCommand:
    def test_writes_predictions(self, tmp_path):
        data = _synth(tmp_path)
        run = _train(tmp_path, data)
        out = _infer(tmp_path, data, run)
        preds = read_predictions(out / "predictions.jsonl")
        assert preds
        assert (out / "infer_config.json").exists()
        ids = {t.image_id for t in preds}
        assert ids <= set(range(6))

        # infer_stats.json totals are the per-scene InferStats summed
        ckpt = load_checkpoint(run / "checkpoint.bin")
        ds = load_annotations(data / "annotations.json", schema="hico_like")
        provider = SyntheticFeatureProvider(
            read_feature_maps(data / "features.npz"))
        proposals = read_proposals(data / "proposals.json")
        want = {"scenes": len(proposals), "num_proposals": 0,
                "num_detections": 0, "per_roi_forwards": 0,
                "num_pairs_scored": 0}
        for image_id in sorted(proposals):
            _, stats = infer(image_id, proposals[image_id], provider,
                             ckpt.params, ckpt.config,
                             ActionRegistry.from_json(ckpt.actions),
                             ds.categories)
            for key, value in dataclasses.asdict(stats).items():
                want[key] += value
        assert want["num_pairs_scored"] > 0
        assert json.loads((out / "infer_stats.json").read_text()) == want

    def test_overlay_output(self, tmp_path):
        data = _synth(tmp_path)
        run = _train(tmp_path, data)
        out = _infer(tmp_path, data, run, name="ov", extra=("--overlay",))
        doc = json.loads((out / "overlay.json").read_text())
        assert doc["config"]["overlay"] is True
        entries = [e for rows in doc["images"].values() for e in rows]
        assert entries
        typed = [e for e in entries if "object_box" in e]
        assert typed and all("target_hint_box" in e for e in typed)
        for e in typed:
            assert len(e["target_hint_box"]) == 4

    @pytest.mark.parametrize("centers", [False, True])
    def test_overlay_hints_are_the_scored_means(self, tmp_path, centers):
        """Each hint is ``decode_rel`` of the density mean the cascade
        scored the triplet's target with (its ``target_mean``), with and
        without k-means centers."""
        data = _synth(tmp_path)
        run = _train(tmp_path, data)
        rng = np.random.default_rng(3)
        table, extra = None, ("--overlay",)
        if centers:
            table = {a: rng.normal(scale=0.3, size=(2, 4))
                     for a, e in enumerate(synthetic_registry())
                     if e.role != ROLE_NONE}
            path = tmp_path / "centers.json"
            path.write_text(json.dumps({"centers": {
                str(a): c.tolist() for a, c in table.items()}}))
            extra += ("--centers", str(path))
        out = _infer(tmp_path, data, run, name="ov", extra=extra)
        images = json.loads((out / "overlay.json").read_text())["images"]

        ckpt = load_checkpoint(run / "checkpoint.bin")
        ds = load_annotations(data / "annotations.json", schema="hico_like")
        provider = SyntheticFeatureProvider(
            read_feature_maps(data / "features.npz"))
        proposals = read_proposals(data / "proposals.json")
        ids = sorted(proposals)
        triplets, _ = infer(
            np.repeat(ids, [len(proposals[i]) for i in ids]),
            np.concatenate([proposals[i] for i in ids]), provider,
            ckpt.params, ckpt.config, ActionRegistry.from_json(ckpt.actions),
            ds.categories, baseline_centers=table)
        entries = [e for i in ids for e in images[str(i)]]
        assert len(entries) == len(triplets)
        hinted = 0
        for e, t in zip(entries, triplets):
            assert (e["action"], e["role"], e["score"]) == (
                t.action, t.role, t.score)
            if t.object is None:
                assert "target_hint_box" not in e
                continue
            assert e["target_hint_box"] == list(
                decode_rel(t.target_mean, t.human.box).as_tuple())
            hinted += 1
        assert hinted > 0

    def test_missing_checkpoint(self, tmp_path, capsys):
        data = _synth(tmp_path)
        code = _run("infer", "--out", str(tmp_path / "o"),
                    "--checkpoint", str(tmp_path / "nope.bin"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: io:")


    def _infer_err(self, tmp_path, capsys, data, proposals):
        run = _train(tmp_path, data)
        path = tmp_path / "bad_proposals.json"
        path.write_text(json.dumps(proposals))
        capsys.readouterr()
        code = _run("infer", "--out", str(tmp_path / "o"),
                    "--checkpoint", str(run / "checkpoint.bin"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(path))
        assert code == 1
        return capsys.readouterr().err

    def test_zero_area_proposal_is_data_error(self, tmp_path, capsys):
        data = _synth(tmp_path)
        doc = json.loads((data / "proposals.json").read_text())
        doc["proposals"]["2"][0] = [5.0, 5.0, 5.0, 9.0]
        err = self._infer_err(tmp_path, capsys, data, doc)
        assert err == ("error: data: proposals for image 2: degenerate box: "
                       "(5.0, 5.0, 5.0, 9.0)\n")

    def test_proposals_without_feature_map_are_data_error(self, tmp_path,
                                                          capsys):
        data = _synth(tmp_path)
        doc = json.loads((data / "proposals.json").read_text())
        doc["proposals"]["99"] = [[1.0, 1.0, 9.0, 9.0]]
        err = self._infer_err(tmp_path, capsys, data, doc)
        assert err == (f"error: data: proposals for image 99 have no feature "
                       f"map in {data / 'features.npz'}\n")


class TestFeatureMapsFile:
    """Every malformed feature-maps file ends in one ``data`` error line."""

    def _infer_err(self, tmp_path, capsys, features):
        data = _synth(tmp_path)
        capsys.readouterr()
        code = _run("infer", "--out", str(tmp_path / "o"),
                    "--checkpoint", str(tmp_path / "unused.bin"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(features(data)),
                    "--proposals", str(data / "proposals.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def _edited(self, edit):
        def features(data):
            with np.load(data / "features.npz") as z:
                arrays = dict(z)
            edit(arrays)
            path = data / "edited.npz"
            np.savez(path, **arrays)
            return path
        return features

    def test_nan_in_map(self, tmp_path, capsys):
        def edit(arrays):
            arrays["map_2"][0, 1, 1] = np.nan
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err == ("error: data: feature map 'map_2': feature map "
                       "contains non-finite entries\n")

    def test_two_dimensional_map(self, tmp_path, capsys):
        def edit(arrays):
            arrays["map_1"] = arrays["map_1"][0]
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err.startswith("error: data: feature map 'map_1': feature map "
                              "must be 3-d, got shape (")

    def test_missing_stride(self, tmp_path, capsys):
        def edit(arrays):
            del arrays["stride_3"]
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err == "error: data: feature map 'map_3': no stride_3 member\n"

    @pytest.mark.parametrize("member, value, dtype", [
        ("map_1", lambda a: a.astype(np.complex128), "complex128"),
        ("map_1", lambda a: a.astype("<U3"), "<U3"),
        ("stride_1", lambda a: np.array("4"), "<U1"),
    ])
    def test_member_not_real(self, tmp_path, capsys, member, value, dtype):
        def edit(arrays):
            arrays[member] = value(arrays[member])
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err == (f"error: data: feature map 'map_1': {member}: dtype "
                       f"{dtype} is not bool, integer or floating\n")

    def test_zero_stride(self, tmp_path, capsys):
        def edit(arrays):
            arrays["stride_0"] = np.array(0.0)
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err == ("error: data: feature map 'map_0': stride must be "
                       "positive and finite, got 0.0\n")

    def test_subnormal_stride(self, tmp_path, capsys):
        """A stride so small that box corners divided by it overflow."""
        def edit(arrays):
            arrays["stride_0"] = np.array(1e-320)
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err == ("error: data: feature map 'map_0': stride must be at "
                       "least 1e-150, got 1e-320\n")

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_maps_of_different_channel_counts(self, tmp_path, capsys,
                                              command):
        def edit(arrays):
            arrays["map_2"] = arrays["map_2"][:-1]
        data = _synth(tmp_path)
        features = self._edited(edit)(data)
        capsys.readouterr()
        code = _run(command, "--out", str(tmp_path / "o"),
                    "--checkpoint" if command == "infer" else "--phases",
                    str(tmp_path / "unused.bin") if command == "infer"
                    else "2:0.001",
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(features),
                    "--proposals", str(data / "proposals.json"))
        channels = np.load(data / "features.npz")["map_0"].shape[0]
        _one_data_line(code, capsys.readouterr().err,
                       f"error: data: {features}: feature maps differ in "
                       f"channel count: {channels - 1}, {channels}\n")

    @pytest.mark.parametrize("write", [
        lambda path: path.write_text('{"map_0": 1}'),
        lambda path: path.write_bytes(b""),
        lambda path: np.save(path, np.zeros((1, 2, 2))),
    ], ids=["json", "empty", "npy"])
    def test_not_an_npz(self, tmp_path, capsys, write):
        def features(data):
            path = data / "features.npy"
            write(path)
            return path
        err = self._infer_err(tmp_path, capsys, features)
        assert err.startswith("error: data: feature maps file is not an .npz "
                              "archive")


HUGE_ID = 10**20


def _huge_id_inputs(data, out, where):
    """Copies in ``out`` of ``data``'s three inputs in which image 0 is
    image ``HUGE_ID`` in the files named by ``where``."""
    out.mkdir()
    doc = json.loads((data / "annotations.json").read_text())
    if "annotations" in where:
        doc["scenes"][0]["image_id"] = HUGE_ID
    (out / "annotations.json").write_text(json.dumps(doc))
    doc = json.loads((data / "proposals.json").read_text())
    if "proposals" in where:
        doc["proposals"][str(HUGE_ID)] = doc["proposals"].pop("0")
    (out / "proposals.json").write_text(json.dumps(doc))
    with np.load(data / "features.npz") as z:
        arrays = dict(z)
    if "features" in where:
        for name in ("map", "stride"):
            arrays[f"{name}_{HUGE_ID}"] = arrays.pop(f"{name}_0")
    np.savez(out / "features.npz", **arrays)
    return out


class TestImageIdRange:
    """An image id outside the int64 range ends each command in one
    ``data`` line naming the record or member that holds it."""

    @pytest.mark.parametrize("command", ["train", "infer", "baseline"])
    def test_every_input(self, trained, tmp_path, capsys, command):
        data, run = trained
        huge = _huge_id_inputs(data, tmp_path / "huge",
                               ("annotations", "proposals", "features"))
        flags = {"train": ["--phases", "2:0.001"],
                 "infer": ["--checkpoint", str(run / "checkpoint.bin")],
                 "baseline": ["--checkpoint", str(run / "checkpoint.bin"),
                              "--fit-annotations",
                              str(huge / "annotations.json")]}[command]
        capsys.readouterr()
        code = _run(command, "--out", str(tmp_path / "o"), *flags,
                    *_inputs(huge))
        _one_data_line(code, capsys.readouterr().err,
                       f"error: data: scenes[0].image_id: {HUGE_ID} is "
                       f"outside the int64 range\n")

    @pytest.mark.parametrize("where, line", [
        ("proposals", f"error: data: proposals for image {HUGE_ID}: image "
                      f"id outside the int64 range\n"),
        ("features", f"error: data: feature map 'map_{HUGE_ID}': image id "
                     f"outside the int64 range\n"),
    ], ids=["proposals", "features"])
    def test_each_reader(self, trained, tmp_path, where, line):
        huge = _huge_id_inputs(trained[0], tmp_path / "huge", (where,))
        code, err = _infer_with(trained, **{
            key: huge / path.name for key, path in (
                ("annotations", trained[0] / "annotations.json"),
                ("features", trained[0] / "features.npz"),
                ("proposals", trained[0] / "proposals.json"))})
        _one_data_line(code, err, line)


class TestEvalCommand:
    def _gt_echo(self, data, tmp_path):
        from hoidet.inference import write_predictions
        from test_evaluation import _gt_echo_triplets

        ds = load_annotations(data / "annotations.json", schema="hico_like")
        path = tmp_path / "echo.jsonl"
        write_predictions(path, _gt_echo_triplets(ds))
        return path

    def test_gt_predictions_score_one(self, tmp_path, capsys):
        data = _synth(tmp_path)
        pred = self._gt_echo(data, tmp_path)
        out = tmp_path / "ev"
        code = _run("eval", "--out", str(out),
                    "--predictions", str(pred),
                    "--annotations", str(data / "annotations.json"))
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["mean_role_ap"] == 1.0
        assert doc["mean_agent_ap"] == 1.0
        assert doc["config"]["iou_thresh"] == 0.5
        text = capsys.readouterr().out
        assert "mean" in text and "AP_role" in text
        assert text.endswith((out / "report.txt").read_text())

    @pytest.mark.parametrize("missing", ["predictions", "annotations"])
    def test_a_missing_input_is_one_io_line(self, annotated, tmp_path,
                                            capsys, missing):
        data, empty = annotated
        paths = {"predictions": empty,
                 "annotations": data / "annotations.json",
                 missing: tmp_path / "nope"}
        code = _run("eval", "--out", str(tmp_path / "ev"),
                    "--predictions", str(paths["predictions"]),
                    "--annotations", str(paths["annotations"]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: cannot read {missing}: [Errno 2]")
        assert err.count("\n") == 1

    def test_bad_rule_is_config_error(self, tmp_path, capsys):
        data = _synth(tmp_path)
        pred = self._gt_echo(data, tmp_path)
        code = _run("eval", "--out", str(tmp_path / "ev"),
                    "--predictions", str(pred),
                    "--annotations", str(data / "annotations.json"),
                    "--iou-thresh", "0.0")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("corrupt, detail", [
        (lambda obj: {k: v for k, v in obj.items() if k != "human"},
         "missing key 'human'"),
        (lambda obj: {**obj, "s_h": [0.5]},
         "s_h: expected a number, got list"),
        (lambda obj: {**obj, "image_id": 1e400},
         "image_id: expected an integer, got number"),
        (lambda obj: {**obj, "s_h": 10 ** 400},
         "int too large to convert to float"),
        (lambda obj: "not json", "Expecting value"),
        (lambda obj: {**obj, "image_id": "0"},
         "image_id: expected an integer, got string"),
        (lambda obj: {**obj, "score": True},
         "score: expected a number, got boolean"),
        (lambda obj: {**obj, "action": 3},
         "action: expected a string, got integer"),
        (lambda obj: {**obj, "human": None},
         "human: expected an object, got null"),
        (lambda obj: {**obj, "human": {**obj["human"], "box": [0, 0, 1]}},
         "human.box: expected a list of 4 numbers, got [0, 0, 1]"),
        (lambda obj: {**obj, "human": {**obj["human"],
                                       "box": [False, 0.0, 1.0, 1.0]}},
         "human.box: expected a list of 4 numbers, got [false, 0.0, 1.0, "
         "1.0]"),
        (lambda obj: [obj], "top level: expected an object, got list"),
        # a corner no float can hold, on a box that overlaps every person
        (lambda obj: {**obj, "human": {**obj["human"], "box": [
            -10 ** 400, -10 ** 400, 10 ** 400, 10 ** 400]}},
         "int too large to convert to float"),
    ], ids=["missing_key", "wrong_type", "overflow", "int_overflow",
            "not_json", "string_image_id", "boolean_score", "integer_action",
            "null_human", "three_box_numbers", "boolean_box_entry",
            "line_is_a_list", "box_int_overflow"])
    def test_malformed_line_is_data_error(self, tmp_path, capsys, corrupt,
                                          detail):
        data = _synth(tmp_path)
        pred = self._gt_echo(data, tmp_path)
        lines = pred.read_text().splitlines()
        bad = corrupt(json.loads(lines[1]))
        lines[1] = bad if isinstance(bad, str) else json.dumps(bad)
        pred.write_text("\n".join(lines) + "\n")
        code = _run("eval", "--out", str(tmp_path / "ev"),
                    "--predictions", str(pred),
                    "--annotations", str(data / "annotations.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: predictions line 2: ")
        assert detail in err

    @pytest.mark.parametrize("path, value", [
        (("score",), math.nan), (("s_h",), math.inf),
        (("s_o",), -math.inf), (("action_score",), math.nan),
        (("compat",), math.inf), (("human", "score"), math.nan),
        (("object", "score"), math.inf), (("human", "box", 2), math.inf),
        (("object", "box", 0), math.nan),
    ], ids=lambda v: v if isinstance(v, float) else ".".join(map(str, v)))
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_non_finite_number_is_data_error(self, tmp_path, capsys, path,
                                             value, at):
        """A NaN score would rank differently with its position in the
        file; every non-finite number is refused wherever it is."""
        data = _synth(tmp_path)
        pred = self._gt_echo(data, tmp_path)
        lines = pred.read_text().splitlines()
        doc = next(d for d in map(json.loads, lines)
                   if d["object"] is not None)
        lines.remove(json.dumps(doc))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        lines.insert(0 if at == "first" else len(lines), json.dumps(doc))
        pred.write_text("\n".join(lines) + "\n")
        code = _run("eval", "--out", str(tmp_path / "ev"),
                    "--predictions", str(pred),
                    "--annotations", str(data / "annotations.json"))
        assert code == 1
        number = 1 if at == "first" else len(lines)
        field = ".".join(path[:2])
        detail = (f"expected finite numbers, got {json.dumps(parent)}"
                  if "box" in path else
                  f"expected a finite number, got {json.dumps(value)}")
        assert capsys.readouterr().err == (
            f"error: data: predictions line {number}: {field}: {detail}\n")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_value_of_another_type_is_one_data_line(self, annotated, data):
        ds_dir = annotated[0]
        lines = self._gt_echo(ds_dir, ds_dir.parent).read_text().splitlines()
        number = data.draw(st.integers(1, len(lines)))
        line = json.loads(lines[number - 1])
        path = data.draw(st.sampled_from(list(_json_paths(line))))
        parent = line
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else line
        allowed = PREDICTION_NULLABLE.get(path, {_json_type(old)})
        new = data.draw(JSON_VALUES.filter(
            lambda v: _json_type(v) not in allowed))
        if path:
            parent[path[-1]] = new
        else:
            line = new
        lines[number - 1] = json.dumps(line)
        bad = ds_dir.parent / "swapped.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run("eval", "--out", str(ds_dir.parent / "ev"),
                        "--predictions", str(bad),
                        "--annotations", str(ds_dir / "annotations.json"))
        err = err.getvalue()
        assert code == 1, (number, path, new)
        assert err.startswith(f"error: data: predictions line {number}: ")
        assert err.count("\n") == 1, err

    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, capsys):
        data = _synth(tmp_path)
        pred = self._gt_echo(data, tmp_path)
        lines = pred.read_bytes().splitlines()
        lines[3] = lines[3][:1] + b"\xff" + lines[3][1:]
        pred.write_bytes(b"\n".join(lines) + b"\n")
        code = _run("eval", "--out", str(tmp_path / "ev"),
                    "--predictions", str(pred),
                    "--annotations", str(data / "annotations.json"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: data: predictions line 4: 'utf-8' codec can't decode "
            "byte 0xff in position 1: invalid start byte\n")

    def test_crlf_endings_and_blank_lines_read_as_before(self, tmp_path):
        data = _synth(tmp_path)
        pred = self._gt_echo(data, tmp_path)
        lines = pred.read_bytes().splitlines()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes(b"\r\n\r\n".join(lines) + b"\r\n \n")
        assert read_predictions(spaced) == read_predictions(pred)


class TestBaselineCommand:
    def test_fewer_offsets_than_k_is_one_stdout_line(self, tmp_path, capfd):
        """An action with fewer ground-truth offsets than ``--k`` is fit
        with one center per offset and named on stdout; stderr stays
        empty."""
        out = tmp_path / "data"
        assert _run("synth", "--out", str(out), "--num-scenes", "3",
                    "--persons-per-scene", "1", "--num-distractors", "1") == 0
        run = _train(tmp_path, out, phases="2:0.001")
        capfd.readouterr()
        code = _run("baseline", "--out", str(tmp_path / "base"), "--k", "3",
                    "--checkpoint", str(run / "checkpoint.bin"),
                    "--fit-annotations", str(out / "annotations.json"),
                    *_inputs(out))
        stdout, stderr = capfd.readouterr()
        assert code == 0 and stderr == ""
        centers = json.loads((tmp_path / "base" / "centers.json").read_text())
        ds = load_annotations(out / "annotations.json", schema="hico_like")
        offsets = collections.Counter(
            ds.registry.index(rec.action, rec.role) for scene in ds.scenes
            for rec in scene.interactions if rec.role != ROLE_NONE)
        reduced = sorted((a, n) for a, n in offsets.items() if n < 3)
        assert reduced
        assert stdout.splitlines()[:-1] == [
            f"action {ds.registry.entries[a].key}: only {n} offsets for "
            f"k=3; fit {n} centers" for a, n in reduced]
        for a, n in reduced:
            assert len(centers["centers"][str(a)]) == n

    def test_fits_and_evaluates(self, tmp_path):
        data = _synth(tmp_path)
        run = _train(tmp_path, data)
        out = tmp_path / "base"
        code = _run("baseline", "--out", str(out),
                    "--checkpoint", str(run / "checkpoint.bin"),
                    "--fit-annotations", str(data / "annotations.json"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"),
                    "--k", "2")
        assert code == 0
        centers = json.loads((out / "centers.json").read_text())["centers"]
        assert centers
        for rows in centers.values():
            assert np.asarray(rows).shape[1] == 4
        assert (out / "predictions.jsonl").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["mean_role_ap"] is not None

    def test_baseline_compat_matches_centers(self, tmp_path):
        from hoidet.geometry import encode_rel
        from test_density import kmeans_compat

        data = _synth(tmp_path)
        run = _train(tmp_path, data)
        out = tmp_path / "base2"
        code = _run("baseline", "--out", str(out),
                    "--checkpoint", str(run / "checkpoint.bin"),
                    "--fit-annotations", str(data / "annotations.json"),
                    "--annotations", str(data / "annotations.json"),
                    "--features", str(data / "features.npz"),
                    "--proposals", str(data / "proposals.json"))
        assert code == 0
        centers = {
            int(k): np.asarray(v) for k, v in json.loads(
                (out / "centers.json").read_text())["centers"].items()
        }
        ds = load_annotations(data / "annotations.json", schema="hico_like")
        preds = read_predictions(out / "predictions.jsonl")
        checked = 0
        for t in preds:
            if t.object is None:
                continue
            a = ds.registry.index(t.action, t.role)
            rel = np.array(
                encode_rel(t.object.box, t.human.box).as_tuple())
            assert np.isclose(t.compat, kmeans_compat(rel, centers[a], 0.3))
            checked += 1
        assert checked > 0


class TestPipelineDeterminism:
    def test_two_runs_identical(self, tmp_path):
        reports = []
        checkpoints = []
        for tag in ("one", "two"):
            data = _synth(tmp_path, seed=11, name=f"data_{tag}")
            run = _train(tmp_path, data, seed=11, name=f"run_{tag}")
            out = _infer(tmp_path, data, run, name=f"preds_{tag}")
            ev = tmp_path / f"ev_{tag}"
            code = _run("eval", "--out", str(ev),
                        "--predictions", str(out / "predictions.jsonl"),
                        "--annotations", str(data / "annotations.json"))
            assert code == 0
            checkpoints.append((run / "checkpoint.bin").read_bytes())
            reports.append((ev / "report.txt").read_bytes())
        assert checkpoints[0] == checkpoints[1]
        assert reports[0] == reports[1]


class _ReadLog(dict):
    """A resolved config that records every key a command reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny synth and a checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("trained")
    data = _synth(tmp_path, scenes=4)
    return data, _train(tmp_path, data, phases="4:0.001")


def _inputs(data):
    return ("--annotations", str(data / "annotations.json"),
            "--features", str(data / "features.npz"),
            "--proposals", str(data / "proposals.json"))


class TestConfigSchema:
    def test_key_sets(self):
        """Each key is one flag; no dataclass field beyond these is
        exposed, synth exposes every SynthConfig field, and infer and
        eval take no seed."""
        keys = {name: set(resolve_config(name, None, {})) for name in _COMMANDS}
        inputs = {"annotations", "features", "proposals"}
        common = {"out", "schema"}
        inference = {"score_threshold", "nms_threshold", "max_triplets"}
        assert keys == {
            "synth": {"out", "num_scenes", "persons_per_scene",
                      "num_distractors", "noise", "image_size", "stride",
                      "proposals_per_box", "proposal_magnitude", "verbs",
                      "seed", "confusers_per_target"},
            "train": common | inputs | {
                "density_mode", "pairwise_mode", "use_interaction_branch",
                "share_interaction_head", "hidden_dim", "concat_hidden",
                "sigma", "sigma_floor", "phases", "images_per_step",
                "workers", "momentum", "weight_decay", "action_loss_weight",
                "checkpoint_every", "seed"},
            "infer": common | inputs | inference | {
                "checkpoint", "overlay", "centers"},
            "eval": common | {"predictions", "annotations", "iou_thresh",
                              "require_object_category", "eleven_point"},
            "baseline": common | inputs | inference | {
                "checkpoint", "fit_annotations", "k", "seed"},
        }

    def test_defaults_in_json_form(self):
        cfg = resolve_config("train", None, {})
        assert cfg["phases"] == [[10000, 0.001], [3000, 0.0001]]
        assert cfg["sigma"] == DEFAULT_SIGMA and cfg["action_loss_weight"] == 2.0
        assert resolve_config("synth", None, {})["verbs"] == list(
            SynthConfig().verbs)

    def test_every_key_is_read(self, trained, tmp_path):
        data, run = trained
        inputs = {key: str(data / f"{key}.{ext}") for key, ext in (
            ("annotations", "json"), ("features", "npz"),
            ("proposals", "json"))}
        predictions = str(tmp_path / "infer" / "predictions.jsonl")
        runs = [
            ("synth", {"num_scenes": 2, "persons_per_scene": 1}),
            ("train", {**inputs, "phases": "2:0.001", "hidden_dim": 8}),
            ("infer", {**inputs, "checkpoint": str(run / "checkpoint.bin")}),
            ("eval", {"predictions": predictions,
                      "annotations": inputs["annotations"]}),
            ("baseline", {**inputs, "checkpoint": str(run / "checkpoint.bin"),
                          "fit_annotations": inputs["annotations"]}),
        ]
        for command, flags in runs:
            cfg = _ReadLog(resolve_config(
                command, None, {**flags, "out": str(tmp_path / command)}))
            assert _COMMANDS[command](cfg) == 0
            assert set(cfg) - cfg.read == set(), command


class TestConfigValueErrors:
    """A value its dataclass or the command rejects is one config line."""

    def _config_err(self, capsys, argv):
        capsys.readouterr()
        assert _run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("key, value, detail", [
        ("images_per_step", 0, "batch shape must be positive"),
        ("momentum", "fast", "momentum: expected a number"),
        ("checkpoint_every", "x", "checkpoint_every: expected an integer"),
        # once trained with the branch on, and at hidden_dim 8
        ("use_interaction_branch", "false",
         "use_interaction_branch: expected a boolean, got string"),
        ("hidden_dim", 8.9, "hidden_dim: expected an integer, got number"),
        ("hidden_dim", True, "hidden_dim: expected an integer, got boolean"),
        ("phases", [[2.5, 0.001]],
         "phases: expected an integer, got number"),
        ("phases", ["2:fast"], "phases: expected 'iterations:lr', got "
                               "'2:fast'"),
        ("schema", 5, "schema: expected a string, got integer"),
    ])
    def test_train(self, trained, tmp_path, capsys, key, value, detail):
        data, _ = trained
        cfg_file = tmp_path / "c.json"
        # a short schedule, so that a value taken as valid trains quickly
        cfg_file.write_text(json.dumps({"phases": "1:0.001", key: value}))
        err = self._config_err(capsys, [
            "train", "--out", str(tmp_path / "run"), "--config",
            str(cfg_file), *_inputs(data)])
        assert detail in err

    @pytest.mark.parametrize("config, flags, detail", [
        ({"score_threshold": "high"}, (),
         "score_threshold: expected a number"),
        ({}, ("--max-triplets", "-1"), "max_triplets must be >= 0, got -1"),
        ({}, ("--nms-threshold", "1.5"), "nms_threshold must be in [0, 1]"),
        ({"centers": ["c.json"]}, (), "centers: expected a string, got list"),
        ({"overlay": 1}, (), "overlay: expected a boolean, got integer"),
    ])
    def test_infer(self, trained, tmp_path, capsys, config, flags, detail):
        data, run = trained
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(config))
        err = self._config_err(capsys, [
            "infer", "--out", str(tmp_path / "o"), "--config", str(cfg_file),
            "--checkpoint", str(run / "checkpoint.bin"), *_inputs(data),
            *flags])
        assert detail in err

    def test_baseline_k(self, trained, tmp_path, capsys):
        data, run = trained
        err = self._config_err(capsys, [
            "baseline", "--out", str(tmp_path / "b"), "--k", "0",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--fit-annotations", str(data / "annotations.json"),
            *_inputs(data)])
        assert err == "error: config: k must be positive, got 0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "nan"), ("--sigma-floor", "nan"), ("--sigma", "inf")])
    def test_train_non_finite_sigma(self, trained, tmp_path, capsys, flag,
                                    value):
        data, _ = trained
        err = self._config_err(capsys, [
            "train", "--out", str(tmp_path / "run"), *_inputs(data),
            "--phases", "1:0.001", flag, value])
        assert err == ("error: config: sigma values must be positive and "
                       "finite\n")
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_eval_eleven_point_string(self, trained, tmp_path, capsys):
        """The string "false" once made eval report 11-point AP."""
        data, run = trained
        preds = _infer(tmp_path, data, run) / "predictions.jsonl"
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"eleven_point": "false"}))
        err = self._config_err(capsys, [
            "eval", "--out", str(tmp_path / "ev"), "--config", str(cfg_file),
            "--predictions", str(preds),
            "--annotations", str(data / "annotations.json")])
        assert err == ("error: config: eleven_point: expected a boolean, "
                       "got string\n")

    @pytest.mark.parametrize("flags, detail", [
        (("--phases", "0:0.001"), "schedule needs at least one iteration"),
        (("--phases", "0:0.001,0:0.01"),
         "schedule needs at least one iteration"),
        (("--phases", "2:nan"), "phase rates must be nonnegative and finite"),
        (("--seed", "-1"), "seed must be nonnegative, got -1"),
        (("--momentum", "nan"), "momentum and weight_decay must be"),
        (("--checkpoint-every", "-1"),
         "checkpoint_every must be nonnegative, got -1"),
    ], ids=["zero_iterations", "zero_iteration_phases", "nan_rate",
            "negative_seed", "nan_momentum", "negative_checkpoint_every"])
    def test_train_schedule(self, trained, tmp_path, capsys, flags, detail):
        """A schedule of no iterations once wrote a checkpoint and then
        raised IndexError; a negative seed raised from numpy."""
        data, _ = trained
        err = self._config_err(capsys, [
            "train", "--out", str(tmp_path / "run"), *_inputs(data),
            "--phases", "2:0.001", *flags])
        assert detail in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_a_zero_iteration_phase_beside_others(self, trained, tmp_path):
        data, _ = trained
        run = _train(tmp_path, data, phases="0:0.01,2:0.001")
        assert len((run / "loss.log").read_text().splitlines()) == 3

    def test_baseline_negative_seed(self, trained, tmp_path, capsys):
        data, run = trained
        err = self._config_err(capsys, [
            "baseline", "--out", str(tmp_path / "b"), "--seed", "-1",
            "--checkpoint", str(run / "checkpoint.bin"),
            "--fit-annotations", str(data / "annotations.json"),
            *_inputs(data)])
        assert err == "error: config: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("flags, detail", [
        (("--seed", "-1"), "and seed must be nonnegative"),
        (("--num-distractors", "-1"), "num_distractors, proposals_per_box"),
        (("--proposals-per-box", "-1"), "num_distractors, proposals_per_box"),
        (("--stride", "0"), "need 1 <= stride <= image_size < inf, got "
                            "stride 0, image_size 128.0"),
        (("--stride", "1000"), "got stride 1000, image_size 128.0"),
        (("--image-size", "nan"), "got stride 4, image_size nan"),
        (("--noise", "nan"), "noise magnitudes must be nonnegative and "
                             "finite"),
        (("--proposal-magnitude", "inf"), "noise magnitudes must be"),
        (("--verbs", "fly"), "verbs must be one or more of carry, throw, "
                             "sit, cut, stand, got ['fly']"),
        (("--persons-per-scene", "50"), "could not place a person"),
        # targets too far off for their corners to stay apart
        (("--noise", "1e300"), "could not place a person"),
        # a noise interval wider than the largest float
        (("--noise", "1e308"), "could not place a person"),
        # refused before any map is allocated
        (("--image-size", "1e308"), "exceeds 1024 feature cells per side"),
        (("--image-size", "4100"), "exceeds 1024 feature cells per side"),
    ], ids=["negative_seed", "negative_distractors", "negative_proposals",
            "zero_stride", "stride_beyond_image", "nan_image_size",
            "nan_noise", "infinite_magnitude", "unknown_verb",
            "crowded_scene", "huge_noise", "noise_range_overflows",
            "huge_image", "grid_too_wide"])
    def test_synth(self, tmp_path, capsys, flags, detail):
        """Each of these once raised, or (the negative counts) wrote
        scenes without a word."""
        err = self._config_err(capsys, [
            "synth", "--out", str(tmp_path / "s"), "--num-scenes", "2",
            *flags])
        assert detail in err
        assert not (tmp_path / "s" / "annotations.json").exists()


def test_synth_huge_proposal_jitter_is_clamped(tmp_path, capsys):
    """The log size jitter is clamped as decode_rel clamps it, so exp
    cannot overflow and print a numpy warning."""
    assert _run("synth", "--out", str(tmp_path / "s"), "--num-scenes", "1",
                "--proposal-magnitude", "1e300") == 0
    assert capsys.readouterr().err == ""


def test_synth_overflowing_jitter_is_clipped(tmp_path, capsys):
    """A jittered offset that overflows is clipped to the image, as a
    finite one beyond it is, with no numpy warning (three were printed):
    every proposal lies in the image."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("synth", "--out", str(tmp_path / "s"), "--num-scenes",
                    "1", "--proposal-magnitude", "1e308") == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "s" / "proposals.json").read_text())
    boxes = np.array(doc["proposals"]["0"])
    assert np.isfinite(boxes).all()
    assert (boxes >= 0).all() and (boxes <= 128.0).all()
    assert (boxes[:, 2:] > boxes[:, :2]).all()


def test_synth_boxes_that_round_together_are_redrawn(tmp_path, capsys):
    """At 1e17 floats lie 16 apart, so a narrow distractor's corners can
    round together; that draw fails and is drawn again, as a target's
    is, where it once ended in a traceback."""
    assert _run("synth", "--out", str(tmp_path / "s"), "--num-scenes", "1",
                "--image-size", "1e17", "--stride",
                "100000000000000000") == 0
    assert capsys.readouterr().err == ""
    scene = load_annotations(tmp_path / "s" / "annotations.json").scenes[0]
    boxes = np.concatenate([scene.persons, scene.objects])
    assert (boxes[:, 2:] > boxes[:, :2]).all()


def _numeric_flags():
    """(command, flag, value) for every int or float key of every
    subcommand, at 0, -1, NaN and -inf (which argparse reads as a
    flag), an int key also at 0.5 and a float key also at inf."""
    for command, schema in _SCHEMAS.items():
        for key, default in schema.items():
            if type(default) not in (int, float):
                continue
            flag = "--" + key.replace("_", "-")
            values = ("0", "-1", "nan", "-inf",
                      "inf" if type(default) is float else "0.5")
            for value in values:
                yield pytest.param(command, flag, value,
                                   id=f"{command}{flag}={value}")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 3-scene world, a checkpoint trained on it and its predictions."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    data = _synth(tmp_path, scenes=3)
    run = _train(tmp_path, data, phases="2:0.001")
    return data, run, _infer(tmp_path, data, run) / "predictions.jsonl"


class TestEveryNumericFlag:
    """No value of a numeric flag ends in a traceback: each command exits
    0, 1 or 2, with nothing or one ``error: <kind>: `` line on stderr."""

    @pytest.mark.parametrize("command, flag, value", _numeric_flags())
    def test_value(self, tiny, tmp_path, capsys, command, flag, value):
        data, run, preds = tiny
        ckpt = ("--checkpoint", str(run / "checkpoint.bin"))
        base = {
            "synth": ("--num-scenes", "2", "--persons-per-scene", "1",
                      "--num-distractors", "1"),
            "train": (*_inputs(data), "--phases", "2:0.001",
                      "--hidden-dim", "8", "--workers", "1"),
            "infer": (*ckpt, *_inputs(data)),
            "eval": ("--predictions", str(preds),
                     "--annotations", str(data / "annotations.json")),
            "baseline": (*ckpt, *_inputs(data), "--fit-annotations",
                         str(data / "annotations.json")),
        }[command]
        argv = [command, "--out", str(tmp_path / "out"), *base, flag, value]
        capsys.readouterr()
        try:
            code = _run(*argv)
        except Exception as exc:  # what the shell would print as a traceback
            pytest.fail(f"Traceback: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert err == "" or re.fullmatch(r"error: [a-z]+: [^\n]*\n", err), err
        assert (err == "") == (code == 0)


def _rewrite_checkpoint(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    JSON header."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                    + raw[16 + hlen:])


def _with_first_value(raw, value):
    """Checkpoint bytes ``raw`` with the first value it stores replaced
    by ``value``."""
    at = 16 + struct.unpack_from("<Q", raw, 8)[0]
    return raw[:at] + struct.pack("<f", value) + raw[at + 4:]


class TestCheckpointFile:
    """Every malformed checkpoint ends in one ``data`` error line that
    names the file."""

    @pytest.mark.parametrize("write, detail", [
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["config"].update(colour="red")),
         "unexpected keyword argument 'colour'"),
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["config"].pop("feature_dim")),
         "missing 1 required positional argument: 'feature_dim'"),
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h.pop("tensors")),
         "KeyError('tensors')"),
        (lambda src, dst: dst.write_bytes(src.read_bytes()[:12]),
         "bad checkpoint magic or preamble"),
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h.update(actions=["carry"])),
         "malformed action entry"),
        # JSON reads a shape of [1e400] as [inf], written [Infinity]
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["tensors"][0].update(
                shape=[float("inf"), 48])),
         "malformed header (tensor obj_fc1_w has shape [Infinity, 48])\n"),
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["tensors"][0].update(shape=[-1])),
         "malformed header (tensor obj_fc1_w has shape [-1])\n"),
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["config"].update(sigma=float("nan"))),
         "/bad.bin: sigma values must be positive and finite\n"),
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["config"].update(sigma_floor=math.inf)),
         "/bad.bin: sigma values must be positive and finite\n"),
        # density_M = 1 passes every shape check as true does
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["config"].update(density_M=True)),
         "/bad.bin: all dimensions must be integers\n"),
        # as many values as it should hold, in the wrong shape
        (lambda src, dst: _rewrite_checkpoint(
            src, dst, lambda h: h["tensors"][0]["shape"].reverse()),
         "/bad.bin: parameter obj_fc1_w has shape (48, "),
        (lambda src, dst: dst.write_bytes(
            _with_first_value(src.read_bytes(), math.inf)),
         "/bad.bin: parameter obj_fc1_w contains non-finite values\n"),
    ], ids=["unknown_config_key", "missing_config_key", "no_tensors",
            "short_file", "action_not_an_object", "infinite_dimension",
            "negative_dimension", "nan_sigma", "infinite_sigma_floor",
            "boolean_dimension", "transposed_tensor", "infinite_value"])
    def test_malformed(self, trained, tmp_path, capsys, write, detail):
        data, run = trained
        bad = tmp_path / "bad.bin"
        write(run / "checkpoint.bin", bad)
        capsys.readouterr()
        code = _run("infer", "--out", str(tmp_path / "o"),
                    "--checkpoint", str(bad), *_inputs(data))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert detail in err


# --- annotation files ---------------------------------------------------


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    """Synthetic inputs and an empty predictions file."""
    tmp = tmp_path_factory.mktemp("annotated")
    data = _synth(tmp, scenes=3)
    (tmp / "empty.jsonl").write_text("")
    return data, tmp / "empty.jsonl"


def _run_on_annotations(command, annotated, path):
    """Exit code and stderr of ``command`` with the annotations at
    ``path`` and the rest of ``annotated``'s inputs."""
    data, empty = annotated
    inputs = ["--predictions", str(empty)] if command == "eval" else [
        "--features", str(data / "features.npz"),
        "--proposals", str(data / "proposals.json"),
        "--phases", "1:0.001", "--workers", "1"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _run(command, "--out", str(path.parent / "out"),
                    "--annotations", str(path), *inputs)
    return code, err.getvalue()


def _json_paths(doc, path=()):
    """Every path (a tuple of keys and indices) in a JSON document."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _json_paths(value, path + (key,))


def _json_type(value):
    """A JSON value's type; every number is one type, booleans another."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float
    return type(value)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=6)


# the top-level keys of a predictions line that may also hold null
PREDICTION_NULLABLE = {("s_o",): {float, type(None)},
                       ("compat",): {float, type(None)},
                       ("object",): {dict, type(None)}}


class TestAnnotationsFile:
    """Every malformed annotation file ends in one ``data`` error line,
    for ``eval`` and ``train`` alike."""

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("edit, message", [
        (lambda d: [d], "{path}: top level: expected an object, got list"),
        (lambda d: {**d, "scenes": {"0": d["scenes"][0]}},
         "scenes: expected a list, got object"),
        (lambda d: {**d, "categories": "person"},
         "categories: expected a list, got string"),
        (lambda d: d["scenes"][1].update(persons=3),
         "scenes[1].persons: expected a list, got integer"),
        (lambda d: d["scenes"][0]["objects"].__setitem__(0, "ball"),
         "scenes[0].objects[0]: expected an object, got string"),
        (lambda d: d["scenes"][1].update(height=float("nan")),
         "scenes[1]: image size must be positive and finite, got 128.0 x "
         "nan"),
        (lambda d: d["scenes"][2].update(image_id=0),
         "scenes[2]: image_id 0 repeats scenes[0]"),
    ], ids=["top_level_list", "scenes_not_a_list", "categories_not_a_list",
            "persons_not_a_list", "object_not_an_object", "nan_height",
            "duplicate_image_id"])
    def test_malformed(self, annotated, tmp_path, command, edit, message):
        data, _ = annotated
        doc = json.loads((data / "annotations.json").read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(doc) or doc))
        code, err = _run_on_annotations(command, annotated, path)
        assert code == 1
        assert err == f"error: data: {message.format(path=path)}\n"

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("where, corners", [
        ("persons[0]", "[1.0, 1.0, 1e400, 5.0]"),
        ("persons[0]", "[-Infinity, 1.0, 4.0, 5.0]"),
        ("objects[0]", "[1.0, 1.0, 4.0, Infinity]"),
    ], ids=["person_1e400", "person_minus_infinity", "object_infinity"])
    def test_an_infinite_corner(self, annotated, tmp_path, command, where,
                                corners):
        code, err = self._with_box(annotated, tmp_path, command, where,
                                   corners)
        assert code == 1
        assert err == (f"error: data: scenes[0].{where}: invalid box "
                       f"{json.loads(corners)!r} (non-finite corner)\n")

    @staticmethod
    def _with_box(annotated, tmp_path, command, where, corners):
        """Exit code and stderr of ``command`` on annotations whose box
        ``where`` of scene 0 is the JSON text ``corners``."""
        data, _ = annotated
        doc = json.loads((data / "annotations.json").read_text())
        if where == "persons[0]":
            doc["scenes"][0]["persons"][0] = "@box"
        else:
            doc["scenes"][0]["objects"][0]["box"] = "@box"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@box"', corners))
        return _run_on_annotations(command, annotated, path)

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("where, corners", [
        ("persons[0]", "[1.0, 1.0, 1e300, 5.0]"),
        ("objects[0]", "[-1e151, 1.0, 4.0, 5.0]"),
        ("objects[0]", "[1, 1, 4, %d]" % 10**200),
    ], ids=["person_1e300", "object_minus_1e151", "object_integer_1e200"])
    def test_a_corner_beyond_the_limit(self, annotated, tmp_path, command,
                                       where, corners):
        code, err = self._with_box(annotated, tmp_path, command, where,
                                   corners)
        assert code == 1
        assert err == (f"error: data: scenes[0].{where}: invalid box "
                       f"{json.loads(corners)!r} (|corner| > 1e+150)\n")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_value_of_another_type_is_one_data_line(self, annotated,
                                                      data):
        text = (annotated[0] / "annotations.json").read_text()
        doc = json.loads(text)
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else doc
        new = data.draw(JSON_VALUES.filter(
            lambda v: _json_type(v) != _json_type(old)))
        if path:
            parent[path[-1]] = new
        else:
            doc = new
        bad = annotated[1].parent / "swapped.json"
        bad.write_text(json.dumps(doc))
        code, err = _run_on_annotations("eval", annotated, bad)
        assert code == 1, (path, new)
        assert err.startswith("error: data: ") and err.count("\n") == 1, err


# --- proposals and feature-map files -------------------------------------


def _infer_with(trained, **inputs):
    """Exit code and stderr of ``hoidet infer`` with ``trained``'s
    checkpoint on its inputs, any of them replaced by ``inputs``."""
    data, run = trained
    paths = {"annotations": data / "annotations.json",
             "features": data / "features.npz",
             "proposals": data / "proposals.json", **inputs}
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = _run("infer", "--out", str(run.parent / "infer_with"),
                    "--checkpoint", str(run / "checkpoint.bin"),
                    *(arg for key, path in paths.items()
                      for arg in ("--" + key, str(path))))
    return code, err.getvalue()


def _one_data_line(code, err, prefix="error: data: "):
    assert code == 1, err
    assert err.startswith(prefix) and err.count("\n") == 1, err


class TestCheckpointWidth:
    """A checkpoint whose feature width is not the maps' pooled width
    ends ``infer`` and ``baseline`` in one ``data`` line naming both."""

    @pytest.mark.parametrize("command", ["infer", "baseline"])
    def test_maps_of_another_channel_count(self, trained, tmp_path, capsys,
                                           command):
        data, run = trained
        with np.load(data / "features.npz") as z:
            arrays = {key: value[:-1] if key.startswith("map_") else value
                      for key, value in z.items()}
        narrow = tmp_path / "narrow.npz"
        np.savez(narrow, **arrays)
        width = SyntheticFeatureProvider(read_feature_maps(narrow)).feature_dim
        ckpt = run / "checkpoint.bin"
        fit = (("--fit-annotations", str(data / "annotations.json"))
               if command == "baseline" else ())
        code = _run(command, "--out", str(tmp_path / "o"), "--checkpoint",
                    str(ckpt), "--annotations",
                    str(data / "annotations.json"), "--features", str(narrow),
                    "--proposals", str(data / "proposals.json"), *fit)
        want = load_checkpoint(ckpt).config.feature_dim
        _one_data_line(code, capsys.readouterr().err,
                       f"error: data: {ckpt}: checkpoint feature_dim {want} "
                       f"does not match the feature maps' pooled width "
                       f"{width}")
        assert not (tmp_path / "o" / "predictions.jsonl").exists()


class TestCheckpointCounts:
    """A checkpoint whose action or object class count differs from the
    annotations' ends ``infer`` and ``baseline`` in one ``data`` line
    naming both counts, before any inference runs."""

    @staticmethod
    def _run_on(command, trained, tmp_path, ckpt, edit):
        data, _ = trained
        doc = json.loads((data / "annotations.json").read_text())
        edit(doc)
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps(doc))
        fit = (("--fit-annotations", str(annotations))
               if command == "baseline" else ())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = _run(command, "--out", str(tmp_path / "o"),
                        "--checkpoint", str(ckpt), "--annotations",
                        str(annotations), "--features",
                        str(data / "features.npz"), "--proposals",
                        str(data / "proposals.json"), *fit)
        return code, err.getvalue()

    @pytest.mark.parametrize("command", ["infer", "baseline"])
    def test_checkpoint_without_actions_and_one_more_action(
            self, trained, tmp_path, command):
        src = trained[1] / "checkpoint.bin"
        ckpt = tmp_path / "no_actions.bin"
        _rewrite_checkpoint(src, ckpt, lambda h: h.update(actions=None))
        want = load_checkpoint(ckpt).config.num_actions
        code, err = self._run_on(
            command, trained, tmp_path, ckpt,
            lambda doc: doc["actions"].append({"name": "wave",
                                               "role": "none"}))
        _one_data_line(code, err,
                       f"error: data: {ckpt}: checkpoint num_actions {want} "
                       f"does not match the {want + 1} actions of the "
                       f"annotations")
        assert not (tmp_path / "o" / "predictions.jsonl").exists()

    @pytest.mark.parametrize("command", ["infer", "baseline"])
    @pytest.mark.parametrize("count", [4, 8])
    def test_object_class_count_differs(self, trained, tmp_path, command,
                                        count):
        ckpt = trained[1] / "checkpoint.bin"
        want = load_checkpoint(ckpt).config.num_object_classes
        assert want == 6

        def edit(doc):
            doc["categories"] = (doc["categories"]
                                 + ["kite", "drum"])[:count]

        code, err = self._run_on(command, trained, tmp_path, ckpt, edit)
        _one_data_line(code, err,
                       f"error: data: {ckpt}: checkpoint num_object_classes "
                       f"{want} does not match the {count} categories of "
                       f"the annotations")
        assert not (tmp_path / "o" / "predictions.jsonl").exists()


class TestProposalsFile:
    """Every malformed proposals file ends in one ``data`` error line."""

    @staticmethod
    def _doc(trained) -> dict:
        return json.loads((trained[0] / "proposals.json").read_text())

    @staticmethod
    def _infer_on(trained, doc):
        path = trained[1].parent / "edited_proposals.json"
        path.write_text(json.dumps(doc))
        return _infer_with(trained, proposals=path)

    @staticmethod
    def _draw_row(doc, data):
        """(image key, its row list, a row index) drawn from ``doc``."""
        image = data.draw(st.sampled_from(sorted(doc["proposals"])))
        rows = doc["proposals"][image]
        return image, rows, data.draw(st.integers(0, len(rows) - 1))

    @pytest.mark.parametrize("command", ["infer", "train", "baseline"])
    def test_not_utf8(self, trained, tmp_path, command):
        data, run = trained
        path = tmp_path / "proposals.json"
        path.write_bytes(b'{"proposals": {"0": [[0, 0, 1, 1]]}, "x": "\xff"}')
        extra = {"infer": ["--checkpoint", str(run / "checkpoint.bin")],
                 "train": ["--phases", "1:0.001", "--workers", "1"],
                 "baseline": ["--checkpoint", str(run / "checkpoint.bin"),
                              "--fit-annotations",
                              str(data / "annotations.json")]}[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run(command, "--out", str(tmp_path / "o"),
                        *_inputs(data)[:4], "--proposals", str(path),
                        *extra)
        _one_data_line(code, err.getvalue(),
                       "error: data: proposals file is not valid JSON: ")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_value_of_another_type_is_one_data_line(self, trained, data):
        doc = self._doc(trained)
        paths = [p for p in _json_paths(doc) if p[:1] != ("config",)]
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else doc
        new = data.draw(JSON_VALUES.filter(
            lambda v: _json_type(v) != _json_type(old)))
        if path:
            parent[path[-1]] = new
        else:
            doc = new
        _one_data_line(*self._infer_on(trained, doc))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_row_of_three_or_eight_numbers(self, trained, data):
        doc = self._doc(trained)
        image, rows, j = self._draw_row(doc, data)
        size = data.draw(st.sampled_from([3, 8]))
        rows[j] = data.draw(st.lists(st.floats(-50, 50), min_size=size,
                                     max_size=size))
        _one_data_line(*self._infer_on(trained, doc),
                       f"error: data: proposals for image {image}: ")

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_degenerate_or_nan_box(self, trained, data):
        doc = self._doc(trained)
        image, rows, j = self._draw_row(doc, data)
        if data.draw(st.booleans()):
            axis = data.draw(st.integers(0, 1))
            rows[j][axis + 2] = rows[j][axis] - data.draw(st.floats(0, 20))
        else:
            rows[j][data.draw(st.integers(0, 3))] = float("nan")
        code, err = self._infer_on(trained, doc)
        assert code == 1
        assert err == (f"error: data: proposals for image {image}: "
                       f"degenerate box: {tuple(rows[j])}\n")

    @pytest.mark.parametrize("corners, box", [
        ("[0, 0, 1e400, 10]", "(0.0, 0.0, inf, 10.0)"),
        ("[-Infinity, 0, 10, 10]", "(-inf, 0.0, 10.0, 10.0)"),
        ("[0, 0, 10, Infinity]", "(0.0, 0.0, 10.0, inf)"),
    ], ids=["1e400", "minus_infinity", "infinity"])
    def test_an_infinite_corner(self, trained, corners, box):
        doc = self._doc(trained)
        doc["proposals"]["1"][0] = "@box"
        path = trained[1].parent / "edited_proposals.json"
        path.write_text(json.dumps(doc).replace('"@box"', corners))
        code, err = _infer_with(trained, proposals=path)
        assert code == 1
        assert err == (f"error: data: proposals for image 1: non-finite "
                       f"box: {box}\n")

    @pytest.mark.parametrize("command", ["infer", "train"])
    @pytest.mark.parametrize("corners, box", [
        ("[0, 0, 1e308, 1e308]", "(0.0, 0.0, 1e+308, 1e+308)"),
        ("[-1e151, 0, 10, 10]", "(-1e+151, 0.0, 10.0, 10.0)"),
        ("[0, 0, 1e150, 1e150]", None),
    ], ids=["1e308", "minus_1e151", "at_the_limit"])
    def test_a_corner_beyond_the_limit(self, trained, tmp_path, command,
                                       corners, box):
        """Corners beyond ``COORD_LIMIT`` are refused, so that no box
        area, IoU or feature-map coordinate overflows; one at the limit
        runs without a numpy warning."""
        data, run = trained
        doc = self._doc(trained)
        doc["proposals"]["1"][0] = "@box"
        path = tmp_path / "proposals.json"
        path.write_text(json.dumps(doc).replace('"@box"', corners))
        extra = (["--checkpoint", str(run / "checkpoint.bin")]
                 if command == "infer" else
                 ["--phases", "2:0.001", "--workers", "1"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = _run(command, "--out", str(tmp_path / "o"),
                        *_inputs(data)[:4], "--proposals", str(path), *extra)
        if box is None:
            assert (code, err.getvalue()) == (0, "")
        else:
            assert code == 1
            assert err.getvalue() == (
                f"error: data: proposals for image 1: out-of-range "
                f"(|corner| > 1e+150) box: {box}\n")

    @pytest.mark.parametrize("key", ["00", " 0", "+0"])
    def test_two_keys_for_one_image(self, trained, key):
        doc = self._doc(trained)
        doc["proposals"][key] = doc["proposals"]["0"]
        code, err = self._infer_on(trained, doc)
        assert code == 1
        assert err == (f"error: data: proposals for image {key}: image id 0 "
                       f"repeats key '0'\n")

    def test_an_empty_list_is_legal(self, trained):
        doc = self._doc(trained)
        doc["proposals"]["1"] = []
        code, err = self._infer_on(trained, doc)
        assert code == 0, err
        path = trained[1].parent / "edited_proposals.json"
        assert read_proposals(path)[1].shape == (0, 4)


def _members(path) -> dict:
    """Archive member name -> bytes."""
    with zipfile.ZipFile(path) as z:
        return {name: z.read(name) for name in z.namelist()}


def _write_members(path, members: dict) -> None:
    with zipfile.ZipFile(path, "w") as z:
        for name, raw in members.items():
            z.writestr(name, raw)


def _npy_bytes(array, **kw) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, **kw)
    return buf.getvalue()


def _corrupt_header(raw: bytes, kind: str, draw) -> bytes:
    """A ``.npy`` member (version 1.0) with a corrupt or unusable header."""
    end = 10 + int.from_bytes(raw[8:10], "little")
    if kind == "magic":
        return b"\x93NUMPX" + raw[6:]
    if kind == "version":
        major = draw(st.integers(0, 255).filter(lambda v: v not in (1, 2, 3)))
        return raw[:6] + bytes([major, 0]) + raw[8:]
    if kind == "truncated":
        return raw[:draw(st.integers(0, end - 1))]
    if kind == "unparsable":
        return raw[:10] + b"{'shape': (".ljust(end - 11) + b"\n" + raw[end:]
    if kind == "two_d":
        return _npy_bytes(np.zeros((2, 3)))
    return _npy_bytes(np.array([None], dtype=object), allow_pickle=True)


class TestFeatureMapsArchive:
    """Every damaged ``features.npz`` ends in one ``data`` error line."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cut_at_a_random_byte(self, trained, data):
        raw = (trained[0] / "features.npz").read_bytes()
        bad = trained[1].parent / "cut.npz"
        bad.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        _one_data_line(*_infer_with(trained, features=bad))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_a_flipped_payload_byte_fails_the_crc(self, trained, data):
        path = trained[0] / "features.npz"
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as z:
            info = data.draw(st.sampled_from(z.infolist()))
        # member data follow the 30-byte local header, name and extra
        names = int.from_bytes(raw[info.header_offset + 26:
                                   info.header_offset + 28], "little")
        extra = int.from_bytes(raw[info.header_offset + 28:
                                   info.header_offset + 30], "little")
        start = info.header_offset + 30 + names + extra
        at = start + data.draw(st.integers(0, info.compress_size - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
        bad = trained[1].parent / "flipped.npz"
        bad.write_bytes(bytes(raw))
        code, err = _infer_with(trained, features=bad)
        _one_data_line(code, err, "error: data: feature map 'map_")
        assert "Bad CRC-32" in err

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_member_with_a_bad_header(self, trained, data):
        members = _members(trained[0] / "features.npz")
        name = data.draw(st.sampled_from(sorted(members)))
        kind = data.draw(st.sampled_from(
            ["magic", "version", "truncated", "unparsable", "two_d",
             "object"]))
        members[name] = _corrupt_header(members[name], kind, data.draw)
        bad = trained[1].parent / "bad_header.npz"
        _write_members(bad, members)
        _one_data_line(*_infer_with(trained, features=bad),
                       "error: data: feature map 'map_")

    def test_two_members_for_one_image(self, trained, tmp_path):
        with np.load(trained[0] / "features.npz") as z:
            arrays = dict(z)
        arrays["map_00"] = arrays["map_0"]
        bad = tmp_path / "repeated.npz"
        np.savez(bad, **arrays)
        code, err = _infer_with(trained, features=bad)
        assert code == 1
        assert err == ("error: data: feature map 'map_00': image id 0 "
                       "repeats 'map_0'\n")

    @pytest.mark.parametrize("version", [(2, 0), (3, 0)])
    def test_members_of_later_versions_read(self, trained, tmp_path,
                                            version):
        path = trained[0] / "features.npz"
        with np.load(path) as z:
            arrays = dict(z)
        members = {name + ".npy": _npy_bytes(a, version=version)
                   for name, a in arrays.items()}
        _write_members(tmp_path / "v2.npz", members)
        want, got = read_feature_maps(path), read_feature_maps(
            tmp_path / "v2.npz")
        assert sorted(got) == sorted(want)
        for image_id, fmap in want.items():
            np.testing.assert_array_equal(got[image_id].data, fmap.data)
            assert got[image_id].stride == fmap.stride


    def test_a_compressed_archive_reads_as_a_stored_one(self, trained,
                                                         tmp_path):
        path = trained[0] / "features.npz"
        with np.load(path) as z:
            np.savez_compressed(tmp_path / "c.npz", **z)
        want, got = read_feature_maps(path), read_feature_maps(
            tmp_path / "c.npz")
        assert sorted(got) == sorted(want)
        for image_id, fmap in want.items():
            np.testing.assert_array_equal(got[image_id].data, fmap.data)
            assert got[image_id].stride == fmap.stride

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_flipped_local_header_byte(self, trained, data):
        """A flipped byte in a field of a member's local header that the
        reader reads: the signature, the name and extra field lengths,
        or the name (the other fields repeat the central directory's).
        The first member's signature is also the file's, by which
        ``np.load`` tells an archive."""
        path = trained[0] / "features.npz"
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as z:
            info = data.draw(st.sampled_from(z.infolist()))
        at = info.header_offset
        names = int.from_bytes(raw[at + 26:at + 28], "little")
        at += data.draw(st.sampled_from(
            [*range(4), *range(26, 30 + names)]))
        raw[at] ^= data.draw(st.integers(1, 255))
        bad = trained[1].parent / "flipped_header.npz"
        bad.write_bytes(bytes(raw))
        _one_data_line(*_infer_with(trained, features=bad),
                       "error: data: feature maps file is not an .npz "
                       "archive" if at < 4 else
                       f"error: data: feature map 'map_"
                       f"{info.filename.split('_')[1][:-4]}': ")

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_member_beyond_the_end_of_the_file(self, trained, data):
        """A central directory whose member starts too near the end of
        the file for its local header, or claims more bytes than the
        file holds: a short read is the member's data error."""
        path = trained[0] / "features.npz"
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as z:
            infos = z.infolist()
            at = z.start_dir
        info = data.draw(st.sampled_from(infos))
        for other in infos[:infos.index(info)]:
            at += 46 + sum(struct.unpack("<HHH", raw[at + 28:at + 34]))
        if data.draw(st.booleans()):  # the local header's offset
            offset = data.draw(st.integers(len(raw) - 29, len(raw)))
            raw[at + 42:at + 46] = struct.pack("<I", offset)
        else:  # the stored and compressed sizes
            size = len(raw) + data.draw(st.integers(0, 2 ** 20))
            raw[at + 20:at + 28] = struct.pack("<II", size, size)
        bad = trained[1].parent / "beyond.npz"
        bad.write_bytes(bytes(raw))
        _one_data_line(*_infer_with(trained, features=bad),
                       f"error: data: feature map 'map_"
                       f"{info.filename.split('_')[1][:-4]}': Truncated ")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_the_first_of_two_faulty_members_is_named(self, trained, data):
        """Maps are read in archive order, each before its stride, so a
        file with two faulty members ends in the error it would end in
        with only the first of them faulty."""
        members = _members(trained[0] / "features.npz")
        order = [name for key in members if key.startswith("map_")
                 for name in (key, "stride_" + key[4:])]
        pair = data.draw(st.lists(st.sampled_from(order), min_size=2,
                                  max_size=2, unique=True))
        first, second = sorted(pair, key=order.index)
        faulty = {name: _corrupt_header(
            members[name], data.draw(st.sampled_from(
                ["magic", "version", "truncated", "unparsable", "object"])),
            data.draw) for name in (first, second)}
        errors = []
        for faults in (faulty, {first: faulty[first]}):
            bad = trained[1].parent / "two_faults.npz"
            _write_members(bad, {**members, **faults})
            errors.append(_infer_with(trained, features=bad))
        assert errors[0] == errors[1]
        _one_data_line(*errors[0], f"error: data: feature map "
                                   f"'map_{first.split('_')[1][:-4]}': ")

    def test_the_reader_holds_about_one_member(self, tmp_path):
        """Besides the buffer, which is not a heap block, the reader
        holds about one member at a time, not the file."""
        rng = np.random.default_rng(0)
        arrays = {}
        for i in range(40):
            arrays[f"map_{i}"] = rng.normal(size=(8, 64, 64))
            arrays[f"stride_{i}"] = np.array(8.0)
        np.savez(tmp_path / "f.npz", **arrays)
        member = arrays["map_0"].nbytes
        tracemalloc.start()
        try:
            maps = read_feature_maps(tmp_path / "f.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(maps) == 40
        assert peak < 3 * member, (peak, member)


@pytest.fixture(scope="module")
def fitted(trained):
    """``trained``'s inputs, checkpoint and the centers.json that
    ``hoidet baseline`` fits on them."""
    data, run = trained
    out = run.parent / "fitted"
    with contextlib.redirect_stdout(io.StringIO()):
        assert _run("baseline", "--out", str(out), "--k", "2",
                    "--checkpoint", str(run / "checkpoint.bin"),
                    "--fit-annotations", str(data / "annotations.json"),
                    *_inputs(data)) == 0
    return data, run / "checkpoint.bin", out / "centers.json"


def _with_value_of_another_type(doc, data):
    """``doc`` with the value at a drawn path (the root included)
    replaced by a value of another JSON type."""
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    new = data.draw(JSON_VALUES.filter(
        lambda v: _json_type(v) != _json_type(old)))
    if not path:
        return new
    parent[path[-1]] = new
    return doc


class TestCheckpointAndCentersDamage:
    """``infer`` on a damaged checkpoint or centers file exits 0 or ends
    in one ``error:`` line, never in a traceback."""

    @staticmethod
    def _infer(fitted, damaged: bytes, centers: bool):
        data, checkpoint, centers_path = fitted
        bad = checkpoint.parent / ("damaged.json" if centers
                                   else "damaged.bin")
        bad.write_bytes(damaged)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = _run("infer", "--out", str(bad.parent / "damaged_out"),
                        "--checkpoint", str(checkpoint if centers else bad),
                        "--centers", str(bad if centers else centers_path),
                        *_inputs(data))
        err = err.getvalue()
        assert code == 0 or (err.startswith("error: ")
                             and err.count("\n") == 1), err

    @staticmethod
    def _raw(fitted, centers: bool) -> bytes:
        return fitted[2 if centers else 1].read_bytes()

    @pytest.mark.parametrize("centers", [False, True],
                             ids=["checkpoint", "centers"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_value_of_another_type(self, fitted, centers, data):
        raw = self._raw(fitted, centers)
        if centers:
            doc = _with_value_of_another_type(json.loads(raw), data)
            damaged = json.dumps(doc).encode()
        else:
            (hlen,) = struct.unpack_from("<Q", raw, 8)
            doc = _with_value_of_another_type(
                json.loads(raw[16:16 + hlen]), data)
            blob = json.dumps(doc).encode()
            damaged = (raw[:8] + struct.pack("<Q", len(blob)) + blob
                       + raw[16 + hlen:])
        self._infer(fitted, damaged, centers)

    @pytest.mark.parametrize("centers", [False, True],
                             ids=["checkpoint", "centers"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_cut_at_a_random_byte(self, fitted, centers, data):
        raw = self._raw(fitted, centers)
        self._infer(fitted, raw[:data.draw(st.integers(0, len(raw) - 1))],
                    centers)

    @pytest.mark.parametrize("centers", [False, True],
                             ids=["checkpoint", "centers"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_flipped_byte(self, fitted, centers, data):
        raw = bytearray(self._raw(fitted, centers))
        # a checkpoint's header is its first 16 + hlen bytes
        header = len(raw) if centers else 16 + struct.unpack_from(
            "<Q", raw, 8)[0]
        at = data.draw(st.integers(0, header - 1)
                       | st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
        self._infer(fitted, bytes(raw), centers)


@pytest.mark.parametrize("key, message", [
    ("00", "centers for action '00': action 0 repeats key '0'"),
    (" 0", "centers for action ' 0': action 0 repeats key '0'"),
    ("-1", "centers for action '-1': no action -1 among the 6 actions of "
           "the registry"),
    ("6", "centers for action '6': no action 6 among the 6 actions of the "
          "registry"),
], ids=["leading_zero", "leading_space", "negative", "past_the_end"])
def test_each_centers_key_names_its_own_action(fitted, tmp_path, capsys, key,
                                               message):
    """A key that repeats another's action, or names no action of the
    registry, is a data error: it neither silently replaces the other
    key's centers nor is silently ignored."""
    data, checkpoint, centers = fitted
    doc = json.loads(centers.read_text())
    doc["centers"][key] = [[9, 9, 9, 9]]
    bad = tmp_path / "centers.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = _run("infer", "--out", str(tmp_path / "out"),
                "--checkpoint", str(checkpoint), "--centers", str(bad),
                *_inputs(data))
    assert code == 1
    assert capsys.readouterr().err == f"error: data: {message}\n"


# documents no JSON input decodes: nested deeper than the decoder
# recurses, an integer past Python's 4300-digit limit, a byte that is not
# UTF-8, and a document cut short
_UNDECODABLE = {
    "deep_nesting": b"[" * 100_000,
    "long_integer": b'{"x": ' + b"9" * 5000 + b"}",
    "not_utf8": b'{"x": "\xff"}',
    "truncated": b'{"x": [1, 2',
}


@pytest.mark.parametrize("damage", list(_UNDECODABLE))
@pytest.mark.parametrize("name", ["config", "annotations", "proposals",
                                  "centers", "predictions", "checkpoint"])
def test_an_undecodable_json_input_is_one_error_line(fitted, tmp_path, name,
                                                     damage):
    """Each JSON input (the checkpoint's header for a checkpoint) ends
    in one ``data`` line, or ``config`` line for the config file."""
    data, checkpoint, centers = fitted
    raw = _UNDECODABLE[damage]
    if name == "checkpoint":
        raw = checkpoint.read_bytes()[:8] + struct.pack("<Q", len(raw)) + raw
    bad = tmp_path / "bad"
    bad.write_bytes(raw)
    paths = {"checkpoint": checkpoint, "centers": centers,
             "annotations": data / "annotations.json",
             "features": data / "features.npz",
             "proposals": data / "proposals.json", name: bad}
    argv = {"config": ["synth", "--config", str(bad)],
            "predictions": ["eval", "--predictions", str(bad),
                            "--annotations", str(paths["annotations"])]}.get(
        name, ["infer", *(arg for key, path in paths.items()
                          for arg in ("--" + key, str(path)))])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = _run(*argv, "--out", str(tmp_path / "out"))
    err = err.getvalue()
    kind = "config" if name == "config" else "data"
    assert code == (2 if name == "config" else 1), err
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1, err


_MAP_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 5),
                        st.integers(1, 5))
_CORNER = st.floats(-100, 100) | st.integers(-100, 100)
_EXTENT = st.floats(0.5, 50) | st.integers(1, 50)


def test_the_provider_pools_from_the_maps_as_read(trained):
    """``read_feature_maps`` holds every map once, channel-last, in one
    buffer, and the provider pools from that buffer as it is: no map is
    held twice."""
    maps = read_feature_maps(trained[0] / "features.npz")
    data = {image_id: fmap.data for image_id, fmap in maps.items()}
    provider = SyntheticFeatureProvider(maps)
    for image_id, fmap in maps.items():
        assert fmap.data is data[image_id]  # not copied again
        assert fmap.data.base is provider.buffer
        assert fmap.data.transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i2", "|b1"])
def test_the_buffer_holds_exactly_the_maps_elements(trained, tmp_path, dtype):
    """The one buffer is sized from the members' headers: one entry per
    map element, whatever the members' dtype, not one per member byte."""
    with np.load(trained[0] / "features.npz") as z:
        arrays = {key: value.astype(dtype) if key.startswith("map_")
                  else value for key, value in z.items()}
    np.savez(tmp_path / "f.npz", **arrays)
    maps = read_feature_maps(tmp_path / "f.npz")
    provider = SyntheticFeatureProvider(maps)
    assert len(provider.buffer) == sum(
        a.size for key, a in arrays.items() if key.startswith("map_"))
    for image_id, fmap in maps.items():
        assert fmap.data.base is provider.buffer
        np.testing.assert_array_equal(fmap.data, arrays[f"map_{image_id}"])


def test_a_deflated_map_counts_its_bytes(trained, tmp_path):
    """A deflated map member is not sized from its headers: it takes one
    buffer entry per uncompressed byte (eight per float64 element), and
    the entries past the maps are never written."""
    with np.load(trained[0] / "features.npz") as z:
        np.savez_compressed(tmp_path / "c.npz", **z)
    with zipfile.ZipFile(tmp_path / "c.npz") as z:
        size = sum(info.file_size for info in z.infolist()
                   if info.filename.startswith("map_"))
    maps = read_feature_maps(tmp_path / "c.npz")
    provider = SyntheticFeatureProvider(maps)
    assert len(provider.buffer) == size
    assert 8 * sum(fmap.data.size for fmap in maps.values()) < size


class TestReadersMatchNumpy:
    """On valid files the readers give what ``np.load`` and ``Box``
    parsing give."""

    @settings(max_examples=40, deadline=None)
    @given(maps=st.lists(st.tuples(
               _MAP_SHAPES, st.sampled_from(["<f8", "<f4", ">f8", "<i2"]),
               st.booleans(), st.floats(0.25, 32), st.integers(0, 2 ** 32)),
               min_size=1, max_size=4),
           rows=st.lists(st.lists(st.tuples(_CORNER, _CORNER, _EXTENT,
                                             _EXTENT), max_size=6),
                         min_size=1, max_size=4))
    def test_arrays_equal(self, maps, rows):
        arrays = {}
        for i, (shape, dtype, fortran, stride, seed) in enumerate(maps):
            data = np.random.default_rng(seed).normal(0, 9, shape)
            data = data.astype(dtype)
            arrays[f"map_{i}"] = np.asfortranarray(data) if fortran else data
            arrays[f"stride_{i}"] = np.array(stride)
        proposals = {str(i): [[x, y, x + w, y + h] for x, y, w, h in boxes]
                     for i, boxes in enumerate(rows)}
        with tempfile.TemporaryDirectory() as tmp:
            np.savez(f"{tmp}/f.npz", **arrays)
            with open(f"{tmp}/p.json", "w") as f:
                json.dump({"config": {}, "proposals": proposals}, f)
            got_maps = read_feature_maps(f"{tmp}/f.npz")
            got_boxes = read_proposals(f"{tmp}/p.json")
            with np.load(f"{tmp}/f.npz") as z:
                for i in range(len(maps)):
                    np.testing.assert_array_equal(got_maps[i].data,
                                                  z[f"map_{i}"])
                    assert got_maps[i].stride == float(z[f"stride_{i}"])
        for i, boxes in proposals.items():
            want = box_array([Box(*map(float, b)) for b in boxes])
            assert got_boxes[int(i)].dtype == np.float64
            np.testing.assert_array_equal(got_boxes[int(i)], want)


class TestCliSurface:
    """The flags each subcommand takes, pinned to its config schema."""

    @staticmethod
    def _help(argv, capsys) -> str:
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", list(_SCHEMAS))
    def test_subcommand_flags(self, command, capsys):
        text = self._help([command, "--help"], capsys)
        flags = ["--config"] + ["--" + key.replace("_", "-")
                                for key in _SCHEMAS[command]]
        for flag in flags:
            assert re.search(re.escape(flag) + r"(?![\w-])", text), flag
        foreign = sorted({"--" + key.replace("_", "-")
                          for schema in _SCHEMAS.values() for key in schema}
                         - set(flags))
        for flag in foreign:
            if any(own.startswith(flag) for own in flags):
                continue  # an abbreviation of one of the command's flags
            assert main([command, flag, "1"]) == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--workers", "nan"],
         "argument --workers: invalid int value: 'nan'"),
        (["train", "--hidden-dim", "0.5"],
         "argument --hidden-dim: invalid int value: '0.5'"),
        (["train", "--sigma", "-inf"],
         "argument --sigma: expected one argument"),
        (["train", "--no-such-flag"],
         "unrecognized arguments: --no-such-flag"),
        (["retrain"], "argument command: invalid choice: 'retrain'"),
        ([], "the following arguments are required: command"),
    ], ids=["nan_int", "fractional_int", "minus_inf", "unknown_flag",
            "unknown_command", "no_command"])
    def test_a_rejected_command_line_is_one_config_line(self, argv, message,
                                                        capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config: {message}")
        assert captured.err.count("\n") == 1

    def test_top_level_help_lists_every_subcommand(self, capsys):
        text = self._help(["--help"], capsys)
        assert "{" + ",".join(_SCHEMAS) + "}" in text

    def test_python_m_hoidet_runs_the_command_line(self):
        src = os.path.dirname(os.path.dirname(hoidet.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, path] if path else [src]))
        done = subprocess.run([sys.executable, "-m", "hoidet", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: hoidet ")
