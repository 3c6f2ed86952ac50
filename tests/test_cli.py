import dataclasses
import json
import struct

import numpy as np
import pytest

from hoidet.cli import (
    _COMMANDS,
    CliError,
    main,
    read_feature_maps,
    read_proposals,
    resolve_config,
)
from hoidet.dataset import ActionRegistry, SynthConfig, load_annotations
from hoidet.density import DEFAULT_SIGMA
from hoidet.features import SyntheticFeatureProvider
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

    def test_divergence_reported(self, tmp_path, capsys):
        data = _synth(tmp_path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = _run("train", "--out", str(tmp_path / "run"),
                        "--annotations", str(data / "annotations.json"),
                        "--features", str(data / "features.npz"),
                        "--proposals", str(data / "proposals.json"),
                        "--phases", "60:1000000.0", "--hidden-dim", "48",
                        "--workers", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: diverged:") and "iteration" in err


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
    ], ids=["not_json", "top_level_list", "centers_not_mapping",
            "non_integer_key", "three_columns", "no_rows", "not_a_number",
            "nan", "missing_action"])
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

    def test_zero_stride(self, tmp_path, capsys):
        def edit(arrays):
            arrays["stride_0"] = np.array(0.0)
        err = self._infer_err(tmp_path, capsys, self._edited(edit))
        assert err == ("error: data: feature map 'map_0': stride must be "
                       "positive and finite, got 0.0\n")

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
        (lambda obj: {**obj, "s_h": [0.5]}, "float() argument"),
        (lambda obj: {**obj, "image_id": 1e400}, "infinity"),
        (lambda obj: "not json", "Expecting value"),
    ], ids=["missing_key", "wrong_type", "overflow", "not_json"])
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


@pytest.mark.filterwarnings("ignore:only .* offsets for k=")
class TestBaselineCommand:
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
        from hoidet.density import kmeans_compat
        from hoidet.geometry import encode_rel

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
        exposed, and infer and eval take no seed."""
        keys = {name: set(resolve_config(name, None, {})) for name in _COMMANDS}
        inputs = {"annotations", "features", "proposals"}
        common = {"out", "schema"}
        inference = {"score_threshold", "nms_threshold", "max_triplets"}
        assert keys == {
            "synth": {"out", "num_scenes", "persons_per_scene",
                      "num_distractors", "noise", "image_size", "stride",
                      "proposals_per_box", "proposal_magnitude", "verbs",
                      "seed"},
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

    @pytest.mark.filterwarnings("ignore:only .* offsets for k=")
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
        ("momentum", "fast", "momentum: could not convert"),
        ("checkpoint_every", "x", "checkpoint_every: invalid literal"),
    ])
    def test_train(self, trained, tmp_path, capsys, key, value, detail):
        data, _ = trained
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: value}))
        err = self._config_err(capsys, [
            "train", "--out", str(tmp_path / "run"), "--config",
            str(cfg_file), *_inputs(data)])
        assert detail in err

    @pytest.mark.parametrize("config, flags, detail", [
        ({"score_threshold": "high"}, (), "score_threshold: could not convert"),
        ({}, ("--max-triplets", "-1"), "max_triplets must be >= 0, got -1"),
        ({}, ("--nms-threshold", "1.5"), "nms_threshold must be in [0, 1]"),
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


class TestCheckpointFile:
    """Every malformed checkpoint ends in one ``data`` error line."""

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
    ], ids=["unknown_config_key", "missing_config_key", "no_tensors",
            "short_file", "action_not_an_object"])
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
