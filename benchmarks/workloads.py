"""Scene recipes and input files shared by the benchmark and the
checkpoint script.

Inputs are written in the formats the ``hoidet`` CLI reads
(``annotations.json``, ``features.npz``, ``proposals.json``), so every
measured command runs exactly as a user would run it.
"""

from __future__ import annotations

import os

from hoidet import cli, dataset

# Criterion-5 scene recipe: one person, five distractors, one confuser
# per target. The crowded recipe adds people and clutter so that pair
# scoring (quadratic in humans x detections) dominates inference.
SPARSE_SCENES = dict(persons_per_scene=1, num_distractors=5,
                     confusers_per_target=1)
CROWDED_SCENES = dict(persons_per_scene=4, num_distractors=10,
                      confusers_per_target=1)

# Training recipe of the committed inference checkpoints.
CHECKPOINT_RECIPE = {
    "scenes": dict(SPARSE_SCENES, num_scenes=2000, seed=100),
    "phases": "3500:1e-3,1500:1e-4",
    "hidden_dim": 96,
    "seed": 3,
}


def generate(**synth_config):
    """Scenes of one recipe; the same seed gives the same scenes."""
    return dataset.generate_synthetic(dataset.SynthConfig(**synth_config))


def write_annotations(path: str, scenes) -> None:
    dataset.save_annotations(path, dataset.Dataset(
        registry=dataset.synthetic_registry(),
        categories=[dataset.PERSON_CATEGORY] + dataset.SYNTH_CATEGORIES,
        scenes=[s.annotation for s in scenes]))


def write_inputs(out_dir: str, scenes, recipe: dict) -> dict:
    """Write the three CLI input files; returns their paths by flag name."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "annotations": os.path.join(out_dir, "annotations.json"),
        "features": os.path.join(out_dir, "features.npz"),
        "proposals": os.path.join(out_dir, "proposals.json"),
    }
    write_annotations(paths["annotations"], scenes)
    cli.write_feature_maps(
        paths["features"],
        {s.annotation.image_id: s.feature_map for s in scenes})
    cli.write_proposals(
        paths["proposals"],
        {s.annotation.image_id: s.proposals for s in scenes}, recipe)
    return paths


def input_flags(paths: dict) -> list[str]:
    return [arg for key in ("annotations", "features", "proposals")
            for arg in ("--" + key, paths[key])]
