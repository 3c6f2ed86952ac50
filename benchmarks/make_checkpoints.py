"""Regenerate the committed inference checkpoints and their manifest.

    python3 benchmarks/make_checkpoints.py

Trains ``fixed_sigma`` and ``mdn_m2`` heads through ``hoidet train``
with the criterion-5 recipe (2000 scenes at seed 100, phases
``3500:1e-3,1500:1e-4``, seed 3, hidden_dim 96), with BLAS pinned to
one thread. Then it measures each checkpoint's mean role and agent AP on
every workload that uses it over seeds 0-4 and records, per checkpoint,
the recipe, the sha256 of the file and an AP floor: the lowest AP seen
minus ``FLOOR_MARGIN``. The benchmark refuses a checkpoint whose hash differs
and fails its correctness gate when AP drops below the floor. Takes
about ten minutes on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS to one thread before NumPy loads)
import workloads  # noqa: E402
from hoidet import cli  # noqa: E402

CHECKPOINT_DIR = os.path.join(HERE, "checkpoints")
MANIFEST = os.path.join(CHECKPOINT_DIR, "manifest.json")
FLOOR_SEEDS = range(5)
FLOOR_MARGIN = 0.05
NO_FLOOR = {"mean_role_ap": 0.0, "mean_agent_ap": 0.0}
MODES = sorted({wl.checkpoint for wl in run.WORKLOADS.values()})


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_checkpoints(work: str) -> None:
    recipe = workloads.CHECKPOINT_RECIPE
    scenes = workloads.generate(**recipe["scenes"])
    paths = workloads.write_inputs(os.path.join(work, "data"), scenes,
                                   recipe["scenes"])
    for mode in MODES:
        out = os.path.join(work, mode)
        code = cli.main(["train", "--out", out, "--density-mode", mode,
                         "--hidden-dim", str(recipe["hidden_dim"]),
                         "--phases", recipe["phases"],
                         "--seed", str(recipe["seed"]),
                         *workloads.input_flags(paths)])
        if code != 0:
            sys.exit(f"hoidet train --density-mode {mode} exited {code}")
        os.replace(os.path.join(out, "checkpoint.bin"),
                   os.path.join(CHECKPOINT_DIR, f"{mode}.bin"))


def measure_floors(work: str) -> dict:
    """Per checkpoint: the lowest AP over every workload that uses it and
    every floor seed, less the margin."""
    means = {mode: [] for mode in MODES}
    for name, wl in run.WORKLOADS.items():
        for seed in FLOOR_SEEDS:
            out = os.path.join(work, f"{name}-{seed}")
            paths = run.setup(wl, seed, out, manifest=None)
            gate = run.Gate()
            _, outputs = run.measure(wl, paths, out, 0.0, wl.shards,
                                     NO_FLOOR, gate)
            if gate.problems:
                sys.exit(f"{name} seed {seed}: {gate.problems}")
            means[wl.checkpoint].append(outputs.report)
    return {
        mode: {
            "seeds": list(FLOOR_SEEDS),
            "workloads": [n for n, wl in run.WORKLOADS.items()
                          if wl.checkpoint == mode],
            **{key: round(min(r[key] for r in reports) - FLOOR_MARGIN, 4)
               for key in NO_FLOOR},
        }
        for mode, reports in means.items()
    }


def main() -> int:
    os.makedirs(CHECKPOINT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CHECKPOINT_DIR) as work:
        train_checkpoints(work)
        floors = measure_floors(work)
    manifest = {}
    for mode in MODES:
        manifest[mode] = {
            "file": f"{mode}.bin",
            "sha256": sha256(os.path.join(CHECKPOINT_DIR, f"{mode}.bin")),
            "density_mode": mode,
            "recipe": workloads.CHECKPOINT_RECIPE,
            "ap_floor": floors[mode],
        }
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
