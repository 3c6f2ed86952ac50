"""Role and agent average precision over triplet predictions.

A role prediction is a true positive when, against some not-yet-consumed
ground-truth record of the same (verb, role): the human boxes overlap at
IoU >= the rule threshold, the object boxes do too, and the action
matches (implied by grouping). Object category is ignored unless the
rule requests it. Agent scoring drops the object condition: a person is
credited with a verb if the human box alone matches, with one candidate
per (human, verb) scored s_h times the action score of its best triplet.

Matching is greedy in descending score order; each ground-truth record
is consumed at most once; among satisfying records the one with the
highest human IoU (then object IoU, then lowest index) is consumed.

AP uses all-point interpolation (the precision envelope integrated over
recall) by default; eleven_point=True gives the older 11-level mean.
Entries with no ground truth have undefined AP: they are flagged and
excluded from means rather than averaged as zeros.

Ground truth is read from the scenes' person and object box arrays;
each record's boxes become ``Box`` values, since matching compares one
prediction with one record at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ROLE_NONE, Dataset
from .geometry import Box, iou


@dataclass(frozen=True)
class MatchRule:
    iou_thresh: float = 0.5
    require_object_category: bool = False

    def __post_init__(self):
        if not 0.0 < self.iou_thresh <= 1.0:
            raise ValueError("iou_thresh must be in (0, 1]")


@dataclass
class EntryResult:
    action: str
    role: str
    ap: float | None
    tp: int
    fp: int
    gt_count: int

    @property
    def defined(self) -> bool:
        return self.gt_count > 0


@dataclass
class APReport:
    role_entries: list
    agent_entries: list
    mean_role_ap: float | None
    mean_agent_ap: float | None
    rule: MatchRule
    eleven_point: bool


@dataclass
class _GtRecord:
    human_box: object
    object_box: object | None
    category: str | None
    consumed: bool = False


def _role_gt_index(ds: Dataset):
    """(verb, role) -> image_id -> ground-truth records."""
    table = {}
    for scene in ds.scenes:
        persons, objects = scene.persons.tolist(), scene.objects.tolist()
        for rec in scene.interactions:
            if rec.role == ROLE_NONE:
                continue
            table.setdefault((rec.action, rec.role), {}).setdefault(
                scene.image_id, []
            ).append(_GtRecord(Box(*persons[rec.person]),
                               Box(*objects[rec.object]),
                               scene.categories[rec.object]))
    return table


def _agent_gt_index(ds: Dataset):
    """verb -> image_id -> one record per distinct acting person."""
    table = {}
    for scene in ds.scenes:
        persons = scene.persons.tolist()
        seen = set()
        for rec in scene.interactions:
            key = (rec.action, rec.person)
            if key in seen:
                continue
            seen.add(key)
            table.setdefault(rec.action, {}).setdefault(
                scene.image_id, []
            ).append(_GtRecord(Box(*persons[rec.person]), None, None))
    return table


def match_triplets(preds, gts_by_image, rule: MatchRule = MatchRule(),
                   agent: bool = False) -> list:
    """Greedy TP/FP flags for one (action, role) group.

    preds must already be sorted by descending score; gts_by_image maps
    image id to records, which this call marks consumed.
    """
    flags = []
    for p in preds:
        best = None
        best_rank = None
        for g in gts_by_image.get(p.image_id, []):
            if g.consumed:
                continue
            h_iou = iou(p.human.box, g.human_box)
            if h_iou < rule.iou_thresh:
                continue
            o_iou = 0.0
            if not agent:
                if p.object is None:
                    continue
                o_iou = iou(p.object.box, g.object_box)
                if o_iou < rule.iou_thresh:
                    continue
                if (rule.require_object_category
                        and p.object.category != g.category):
                    continue
            rank = (h_iou, o_iou)
            if best is None or rank > best_rank:
                best, best_rank = g, rank
        if best is None:
            flags.append(False)
        else:
            best.consumed = True
            flags.append(True)
    return flags


def average_precision(flags, gt_count: int,
                      eleven_point: bool = False) -> float | None:
    """AP from score-ordered TP/FP flags; None when gt_count is zero."""
    if gt_count < 0:
        raise ValueError("gt_count must be nonnegative")
    if gt_count == 0:
        return None
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / gt_count
    precision = tp / (tp + fp)
    if eleven_point:
        levels = np.linspace(0.0, 1.0, 11)
        out = 0.0
        for r in levels:
            mask = recall >= r
            out += precision[mask].max() if mask.any() else 0.0
        return float(out / 11.0)
    r = np.concatenate([[0.0], recall, [1.0]])
    p = np.concatenate([[0.0], precision, [0.0]])
    p = np.maximum.accumulate(p[::-1])[::-1]  # precision envelope
    steps = np.nonzero(np.diff(r))[0]
    return float(np.sum((r[steps + 1] - r[steps]) * p[steps + 1]))


def _sorted_preds(preds):
    return [preds[i] for i in
            sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))]


def agent_candidates(triplets) -> dict:
    """verb -> detections deduped per (image, human box), best score."""
    best = {}
    for t in triplets:
        score = t.s_h * t.action_score
        key = (t.action, t.image_id, t.human.box.as_tuple())
        cur = best.get(key)
        if cur is None or score > cur[0]:
            best[key] = (score, t)
    out = {}
    for (verb, _, _), (score, t) in sorted(
            best.items(), key=lambda kv: (kv[0][0], -kv[1][0])):
        out.setdefault(verb, []).append(
            _AgentPred(image_id=t.image_id, human=t.human, score=score))
    return out


@dataclass
class _AgentPred:
    image_id: int
    human: object
    score: float


def _score_entry(action: str, role: str, preds, gts, rule: MatchRule,
                 eleven_point: bool, agent: bool) -> EntryResult:
    """Match one entry's predictions, best first, against its ground truth."""
    gt_count = sum(len(v) for v in gts.values())
    flags = match_triplets(_sorted_preds(preds), gts, rule, agent=agent)
    return EntryResult(action=action, role=role,
                       ap=average_precision(flags, gt_count, eleven_point),
                       tp=int(sum(flags)), fp=int(len(flags) - sum(flags)),
                       gt_count=gt_count)


def evaluate_triplets(triplets, ds: Dataset, rule: MatchRule = MatchRule(),
                      eleven_point: bool = False) -> APReport:
    registry = ds.registry
    by_entry = {}
    for t in triplets:
        if not registry.has(t.action, t.role):
            raise ValueError(
                f"prediction action {t.action!r}/{t.role!r} not in registry")
        by_entry.setdefault((t.action, t.role), []).append(t)

    role_gts = _role_gt_index(ds)
    role_entries = [
        _score_entry(e.name, e.role, by_entry.get((e.name, e.role), []),
                     role_gts.get((e.name, e.role), {}), rule, eleven_point,
                     agent=False)
        for e in registry if e.role != ROLE_NONE]
    agent_gts = _agent_gt_index(ds)
    agent_preds = agent_candidates(triplets)
    agent_entries = [
        _score_entry(verb, "agent", agent_preds.get(verb, []),
                     agent_gts.get(verb, {}), rule, eleven_point, agent=True)
        for verb in registry.verbs]

    def _mean(entries):
        vals = [e.ap for e in entries if e.defined]
        return float(np.mean(vals)) if vals else None

    return APReport(role_entries=role_entries, agent_entries=agent_entries,
                    mean_role_ap=_mean(role_entries),
                    mean_agent_ap=_mean(agent_entries),
                    rule=rule, eleven_point=eleven_point)


def _fmt_ap(ap) -> str:
    return "    -" if ap is None else f"{100.0 * ap:5.1f}"


def report_text(report: APReport) -> str:
    """Fixed-width table: one row per role entry, means at the bottom."""
    agent_by_verb = {e.action: e for e in report.agent_entries}
    lines = [f"{'action':<16}{'role':<12}{'AP_role':>8}{'AP_agent':>9}"
             f"{'#GT':>6}"]
    listed_agents = set()
    for e in report.role_entries:
        ag = agent_by_verb[e.action]
        ag_txt = _fmt_ap(ag.ap) if e.action not in listed_agents else "     "
        listed_agents.add(e.action)
        lines.append(f"{e.action:<16}{e.role:<12}{_fmt_ap(e.ap):>8}"
                     f"{ag_txt:>9}{e.gt_count:>6}")
    for verb, ag in agent_by_verb.items():
        if verb not in listed_agents:
            lines.append(f"{verb:<16}{'-':<12}{'    -':>8}"
                         f"{_fmt_ap(ag.ap):>9}{ag.gt_count:>6}")
    lines.append("-" * len(lines[0]))
    lines.append(f"{'mean':<16}{'':<12}{_fmt_ap(report.mean_role_ap):>8}"
                 f"{_fmt_ap(report.mean_agent_ap):>9}")
    skipped = [f"{e.action}/{e.role}" for e in report.role_entries
               if not e.defined]
    skipped += [f"{e.action}/agent" for e in report.agent_entries
                if not e.defined]
    if skipped:
        lines.append("no ground truth (excluded from means): "
                     + ", ".join(skipped))
    return "\n".join(lines) + "\n"


def report_json(report: APReport) -> dict:
    def _entry(e):
        return {"action": e.action, "role": e.role, "ap": e.ap,
                "tp": e.tp, "fp": e.fp, "gt_count": e.gt_count}

    return {
        "rule": {"iou_thresh": report.rule.iou_thresh,
                 "require_object_category":
                     report.rule.require_object_category},
        "eleven_point": report.eleven_point,
        "role_entries": [_entry(e) for e in report.role_entries],
        "agent_entries": [_entry(e) for e in report.agent_entries],
        "mean_role_ap": report.mean_role_ap,
        "mean_agent_ap": report.mean_agent_ap,
    }

