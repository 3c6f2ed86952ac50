"""hoidet benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload infer_sparse --seed 0 \\
        --seconds 35 --trace 0

Every workload drives the real CLI entry point (``hoidet.cli.main``)
in-process on input files generated here from ``--seed``. Round ``r``
runs one ``hoidet train`` command, then ``hoidet infer`` and ``hoidet
eval`` on shard ``r % shards`` of the held-out scenes; rounds repeat
until ``--seconds`` have passed, at least one per shard. The
predictions of all shards, concatenated, are evaluated once more for the
run's AP. The workloads differ in scene recipe and in which stage
carries the bulk of each round (see ``WORKLOADS``), so that each one
stresses the layer it was chosen for while every end-to-end metric is
measured on every workload. A stage's throughput is its work per
second over one pass of its inputs, from the median time of each
input's commands in the run (see ``Stage``), each time scaled to the
machine's speed at that moment (see ``Timing``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
of ``--seconds`` untraced, then runs one pass (one round per shard) with
per-layer spans (see ``layers.py``), checks that tracing left every
output byte-identical, and reports the per-layer metrics of that pass
plus the tracing overhead. The metric names and units come from
``BENCHMARK.json``.

BLAS is pinned to one thread in this process: on a two-core machine a
second BLAS thread contends with whatever else runs, which made a small
matmul two hundred times slower. The run refuses to start if the pin
did not take. The last line of standard output is the result; the line
before it records the environment.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import hoidet  # noqa: E402

if not os.path.abspath(hoidet.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"hoidet imported from {hoidet.__file__}, "
                      f"not from this checkout's src/")

from hoidet import cli  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHECKPOINT_DIR = os.path.join(HERE, "checkpoints")
# a fixed pure-Python loop, timed next to every measured command
REFERENCE_LOOPS = 200_000
# its wall time on the reference machine, to which every timing is scaled
REFERENCE_S = 0.016
SETUP_REPEATS = 5
LOSS_TAIL_LINES = 10
# every training slice uses the checkpoint recipe's head and seed
TRAIN_FLAGS = ["--density-mode", "fixed_sigma",
               "--hidden-dim", str(workloads.CHECKPOINT_RECIPE["hidden_dim"]),
               "--seed", str(workloads.CHECKPOINT_RECIPE["seed"])]


@dataclass(frozen=True)
class Workload:
    scenes: dict  # SynthConfig fields other than num_scenes and seed
    train_scenes: int
    train_iterations: int  # per train command
    infer_scenes: int  # held out, split into shards
    shards: int  # one infer and one eval command per shard
    checkpoint: str  # committed checkpoint used by infer


# Commands are short (0.1-1 s) and many, so that a run holds dozens of
# each (see Stage.rate); shards hold equal numbers of scenes. Each
# workload gives its dominant stage most of the time.
WORKLOADS = {
    # label assignment, backward and SGD; the feature memo mostly hits
    # after the first visit to a scene
    "train": Workload(
        scenes=workloads.SPARSE_SCENES, train_scenes=200,
        train_iterations=20, infer_scenes=200, shards=8,
        checkpoint="fixed_sigma"),
    # about 9 detections per scene: RoI pooling of fresh boxes leads
    "infer_sparse": Workload(
        scenes=workloads.SPARSE_SCENES, train_scenes=60,
        train_iterations=5, infer_scenes=400, shards=8,
        checkpoint="fixed_sigma"),
    # about 30 detections and 4+ humans per scene: quadratic pair
    # scoring and the mixture density lead
    "infer_crowded": Workload(
        scenes=workloads.CROWDED_SCENES, train_scenes=60,
        train_iterations=3, infer_scenes=120, shards=8,
        checkpoint="mdn_m2"),
}


class Gate:
    """Correctness checks and attempted/failed operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok

    def operation(self, code: int, count: int, what: str) -> bool:
        self.attempted += count
        if code != 0:
            self.failed += count
            self.problems.append(f"{what} exited {code}")
        return code == 0


def reference_s() -> float:
    """Wall time of the fixed reference loop: the machine's speed now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    """Wall time of one piece of work and the machine's speed around it.

    On shared hosts like the two-core VM this was tuned on, neighbours
    change the speed of the whole machine in phases of seconds to
    minutes: medians of the reference loop over 10 s swung between
    12 ms and 19 ms, commands swung with it, and a run's median moved
    with the phases it caught. Scaling each command's wall time by the
    reference loop's time right before and after it, relative to
    ``REFERENCE_S``, takes the phases out: over 35-s windows of one
    seed, the spread (IQR / median) of median command rates fell from
    0.10-0.23 unscaled to 0.05-0.09 scaled. A change to the program
    moves its commands' times but not the loop's."""
    wall: float
    reference: float  # mean reference-loop time just before and after

    @property
    def seconds(self) -> float:
        """``wall`` on a machine where the loop takes ``REFERENCE_S``."""
        return self.wall * REFERENCE_S / self.reference


def timed(fn, *args):
    """(fn's result, its Timing)."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, Timing(wall, (before + reference_s()) / 2)


def run_cli(argv: list[str]) -> tuple[int, Timing]:
    """(exit code, Timing) of one ``hoidet`` command, output muted."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code, timing = timed(cli.main, argv)
    if code != 0:
        sys.stderr.write(sink.getvalue()[-2000:])
    return code, timing


# --- environment -------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


# --- set-up ------------------------------------------------------------------


def load_manifest() -> dict:
    with open(os.path.join(CHECKPOINT_DIR, "manifest.json")) as fh:
        return json.load(fh)


def verified_checkpoint(name: str, manifest: dict) -> str:
    path = os.path.join(CHECKPOINT_DIR, manifest[name]["file"])
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != manifest[name]["sha256"]:
        raise RuntimeError(f"{path}: sha256 {digest} does not match the "
                           f"manifest; regenerate with make_checkpoints.py")
    return path


def setup(wl: Workload, seed: int, out_dir: str, manifest) -> dict:
    """Generate and write the run's inputs; verify its checkpoint.

    Training and held-out inference scenes come from disjoint seeds of
    the same recipe. The held-out scenes are written as ``wl.shards``
    input sets plus one annotation file for all of them, against which
    the concatenated predictions give the run's AP. ``manifest=None``
    skips the hash check (used while the checkpoints are being made)."""
    recipe = dict(wl.scenes, seed=seed)
    train = workloads.generate(num_scenes=wl.train_scenes,
                               seed=10_000 + 2 * seed, **wl.scenes)
    held_out = workloads.generate(num_scenes=wl.infer_scenes,
                                  seed=10_001 + 2 * seed, **wl.scenes)
    size = -(-wl.infer_scenes // wl.shards)
    chunks = [held_out[i * size:(i + 1) * size] for i in range(wl.shards)]
    paths = {
        "train": workloads.write_inputs(os.path.join(out_dir, "train"),
                                        train, recipe),
        "shards": [dict(workloads.write_inputs(
            os.path.join(out_dir, f"shard{i}"), chunk, recipe),
            scenes=len(chunk)) for i, chunk in enumerate(chunks)],
        "annotations": os.path.join(out_dir, "annotations.json"),
        "checkpoint": (
            verified_checkpoint(wl.checkpoint, manifest) if manifest
            else os.path.join(CHECKPOINT_DIR, f"{wl.checkpoint}.bin")),
    }
    workloads.write_annotations(paths["annotations"], held_out)
    return paths


# --- measured stages ---------------------------------------------------------


@dataclass
class Outputs:
    """What a run produced; it must not depend on timing or tracing."""
    loss_log: bytes
    predictions: bytes
    report: dict


class Stage:
    """Work done and time taken by each command of one stage, by input
    (the shard, or the one training set): repeats of a command on the
    same input do the same work."""

    def __init__(self):
        self.commands: list[tuple[int, int, Timing]] = []

    def add(self, key: int, work: int, timing: Timing) -> None:
        self.commands.append((key, work, timing))

    def pass_seconds(self) -> float:
        """Scaled seconds of one pass over the inputs: the sum over
        inputs of the median time of their commands. Taking the median
        per input keeps shards of unequal cost from weighing on it by
        how often each was run."""
        times: dict[int, list[float]] = {}
        for key, _, timing in self.commands:
            times.setdefault(key, []).append(timing.seconds)
        return sum(statistics.median(v) for v in times.values())

    def rate(self) -> float:
        """Work per scaled second of one pass over the inputs, or 0 if
        no command succeeded (the gate has then failed the run)."""
        if not self.commands:
            return 0.0
        work = {key: w for key, w, _ in self.commands}
        return sum(work.values()) / self.pass_seconds()


def train_once(wl: Workload, paths: dict, out: str, gate: Gate):
    argv = ["train", "--out", out,
            "--phases", f"{wl.train_iterations}:1e-3", *TRAIN_FLAGS,
            *workloads.input_flags(paths["train"])]
    code, timing = run_cli(argv)
    if not gate.operation(code, wl.train_iterations, "hoidet train"):
        return None, b""
    with open(os.path.join(out, "loss.log"), "rb") as fh:
        log = fh.read()
    gate.check(log.count(b"\n") == wl.train_iterations + 1,
               "loss.log does not hold one line per iteration")
    return timing, log


def infer_once(shard: dict, checkpoint: str, out: str, gate: Gate):
    argv = ["infer", "--out", out, "--checkpoint", checkpoint,
            *workloads.input_flags(shard)]
    code, timing = run_cli(argv)
    if not gate.operation(code, shard["scenes"], "hoidet infer"):
        return None, b""
    with open(os.path.join(out, "predictions.jsonl"), "rb") as fh:
        predictions = fh.read()
    gate.check(predictions.count(b"\n") > 0, "predictions are empty")
    return timing, predictions


def eval_once(predictions_path: str, annotations: str, out: str,
              gate: Gate):
    argv = ["eval", "--out", out, "--predictions", predictions_path,
            "--annotations", annotations]
    code, timing = run_cli(argv)
    if not gate.operation(code, 1, "hoidet eval"):
        return None, {}
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    return timing, report


def check_report(report: dict, floor: dict, gate: Gate) -> None:
    gate.check(all(e["gt_count"] > 0 for e in report["role_entries"]),
               "a role entry has no ground truth")
    for key in ("mean_role_ap", "mean_agent_ap"):
        value = report.get(key)
        gate.check(value is not None and value >= floor[key],
                   f"{key} {value} below the checkpoint floor {floor[key]}")


def measure(wl: Workload, paths: dict, out_dir: str, budget: float,
            max_rounds: int, floor: dict, gate: Gate):
    """Rounds of train, infer, eval until ``budget`` seconds have passed.

    Round ``r`` runs one train command, then infer and eval on shard
    ``r % shards``; at least one round per shard runs, and at most
    ``max_rounds``. Every repeat of a command must reproduce its first
    output byte for byte. Returns the stages' timings and the outputs."""
    stages = {"train": Stage(), "infer": Stage(), "eval": Stage()}
    loss_log = None
    predictions = [None] * wl.shards
    start = time.perf_counter()
    round_s = 0.0
    rnd = 0
    # a round starts only if one as long as the last still fits the budget
    while rnd < max_rounds and (rnd < wl.shards or (
            time.perf_counter() - start + round_s <= budget)):
        round_start = time.perf_counter()
        out = os.path.join(out_dir, f"round{rnd}")
        shard = rnd % wl.shards
        timing, log = train_once(wl, paths, os.path.join(out, "train"),
                                 gate)
        if timing is not None:
            stages["train"].add(0, wl.train_iterations, timing)
            loss_log = log if loss_log is None else loss_log
            gate.check(log == loss_log, f"round {rnd}: loss.log changed")
        inputs = paths["shards"][shard]
        timing, preds = infer_once(inputs, paths["checkpoint"],
                                   os.path.join(out, "infer"), gate)
        if timing is not None:
            stages["infer"].add(shard, inputs["scenes"], timing)
            if predictions[shard] is None:
                predictions[shard] = preds
            gate.check(preds == predictions[shard],
                       f"round {rnd}: predictions changed")
            timing, _ = eval_once(
                os.path.join(out, "infer", "predictions.jsonl"),
                inputs["annotations"], os.path.join(out, "eval"), gate)
            if timing is not None:
                stages["eval"].add(shard, preds.count(b"\n"), timing)
        shutil.rmtree(out)
        round_s = time.perf_counter() - round_start
        rnd += 1

    report = {}
    if gate.check(None not in predictions, "a shard was never inferred"):
        all_path = os.path.join(out_dir, "predictions.jsonl")
        with open(all_path, "wb") as fh:
            fh.write(b"".join(predictions))
        _, report = eval_once(all_path, paths["annotations"],
                              os.path.join(out_dir, "report"), gate)
        if report:
            check_report(report, floor, gate)
    means = {k: report.get(k) for k in ("mean_role_ap", "mean_agent_ap")}
    return stages, Outputs(loss_log or b"",
                           b"".join(p or b"" for p in predictions), means)


def train_loss_final(loss_log: bytes) -> float:
    """Mean total loss over the last logged iterations."""
    lines = loss_log.decode().splitlines()[1:][-LOSS_TAIL_LINES:]
    return statistics.fmean(float(line.split()[2]) for line in lines)


# --- result ------------------------------------------------------------------


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {group: {m["name"]: m["unit"] for m in doc[group]}
            for group in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args)
    if env["blas_threads"] not in (None, 1) or any(
            v != "1" for v in env["blas_env"].values()):
        print(f"error: BLAS is not pinned to one thread: {env}",
              file=sys.stderr)
        return 2
    units = declared_metrics()
    wl = WORKLOADS[args.workload]
    manifest = load_manifest()
    floor = manifest[wl.checkpoint]["ap_floor"]
    gate = Gate()

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            paths, timing = timed(setup, wl, args.seed,
                                  os.path.join(work, "inputs"), manifest)
            setups.append(timing)
        budget = args.seconds / 2 if args.trace else args.seconds
        stages, outputs = measure(wl, paths, os.path.join(work, "plain"),
                                  budget, math.inf, floor, gate)
        if args.trace:
            tracer = spans.Tracer()
            with layers.traced(tracer):
                setup(wl, args.seed, os.path.join(work, "traced-inputs"),
                      manifest)
                # one pass over the shards, so that per-layer counts
                # repeat exactly from run to run
                traced, traced_outputs = measure(
                    wl, paths, os.path.join(work, "traced"), 0.0, wl.shards,
                    floor, gate)
            gate.check(traced_outputs == outputs,
                       "tracing changed loss.log, predictions or AP means")
            values, tails = layers.layer_metrics(tracer)
            values.update(overhead(stages, traced))
            env["tails"] = tails
            group = "per_layer"
        else:
            values = {
                "setup_s": statistics.median(t.seconds for t in setups),
                "train_iters_per_s": stages["train"].rate(),
                "train_loss_final": (train_loss_final(outputs.loss_log)
                                     if outputs.loss_log else 0.0),
                "infer_scenes_per_s": stages["infer"].rate(),
                "eval_triplets_per_s": stages["eval"].rate(),
                "mean_role_ap": outputs.report["mean_role_ap"] or 0.0,
                "mean_agent_ap": outputs.report["mean_agent_ap"] or 0.0,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            group = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units[group]):
        raise RuntimeError(f"reported metrics {sorted(values)} differ from "
                           f"the {group} metrics in BENCHMARK.json")
    # per command: input, work, wall seconds, reference-loop seconds
    env["untraced_commands"] = {
        name: [(k, w, t.wall, t.reference) for k, w, t in stage.commands]
        for name, stage in stages.items()}
    env["setups"] = [(t.wall, t.reference) for t in setups]
    env["problems"] = gate.problems
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not gate.problems and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units[group].items()},
    }))
    return 0


def overhead(plain: dict, traced: dict) -> dict:
    """Tracing overhead per stage: the traced pass's scaled time over
    the untraced one, less one, in %."""
    out = {}
    for name in ("train", "infer", "eval"):
        p, t = plain[name], traced[name]
        out[f"trace.{name}_overhead_pct"] = (
            100.0 * (t.pass_seconds() / p.pass_seconds() - 1.0)
            if p.commands and t.commands else 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
