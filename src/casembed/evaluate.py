"""Distance ranking for a source and average-precision scoring.

A ranking belongs to a source, not to a cascade: it orders the source's
whole susceptibility space, so `evaluate` ranks each distinct test source
once and scores all of that source's cascades against the one ranking.

The AP of a ranking against a truth cascade with R infected users: for each
truth user found at position k of the ranking add |top-k of ranking that are
truth| / k, then divide by R. Truth users absent from the ranking contribute
zero, so sparse candidate coverage is penalized rather than skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from casembed.data import Cascade, CascadeDataset
from casembed.model import EmbeddingModel, ModelError

__all__ = [
    "RankedPrediction",
    "CascadeScore",
    "EvalReport",
    "rank_for_source",
    "average_precision",
    "evaluate",
    "report_json_lines",
    "report_tsv",
]


@dataclass(frozen=True)
class RankedPrediction:
    """Candidates of one source as (user, squared distance) pairs, ascending
    by squared distance with ties broken by ascending user id."""

    source: int
    ranking: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class CascadeScore:
    cascade_id: str
    ap: float
    candidate_count: int
    unseen_count: int
    source_known: bool = True


@dataclass(frozen=True)
class EvalReport:
    per_cascade: tuple[CascadeScore, ...]
    map: float

    @property
    def num_cascades(self) -> int:
        return len(self.per_cascade)

    @property
    def num_unknown_sources(self) -> int:
        return sum(1 for s in self.per_cascade if not s.source_known)

    @property
    def total_unseen(self) -> int:
        return sum(s.unseen_count for s in self.per_cascade)


def rank_for_source(model: EmbeddingModel, source: int) -> RankedPrediction:
    """Rank every user of the source's susceptibility space by distance.

    The candidate set is the full space minus the source itself; raises for
    sources without an influence coordinate.
    """
    if model.influence_point(source) is None:
        raise ModelError(f"user {source} has no influence coordinate")
    space = model.space_of(source) or {}
    scored = [(user, model.distance_sq(source, user)) for user in space if user != source]
    scored.sort(key=lambda item: (item[1], item[0]))
    return RankedPrediction(source, tuple(scored))


def _prefix_ap(ranked_users: Iterable[int], truth_users: set[int], truth_total: int) -> float:
    if truth_total < 1:
        raise ValueError("truth cascade has no infected users")
    hits = 0
    total = 0.0
    for k, user in enumerate(ranked_users, start=1):
        if user in truth_users:
            hits += 1
            total += hits / k
    return total / truth_total


def average_precision(prediction: RankedPrediction, truth: Cascade) -> float:
    """AP of a ranking against a truth cascade with the same source."""
    if truth.source != prediction.source:
        raise ValueError(
            f"prediction is for source {prediction.source},"
            f" truth cascade starts at {truth.source}"
        )
    ranked = [user for user, _ in prediction.ranking]
    return _prefix_ap(ranked, set(truth.infected), truth.num_infected)


def evaluate(
    model: EmbeddingModel, test: CascadeDataset, threads: int | None = None
) -> EvalReport:
    """Score every test cascade; MAP is the mean AP over all of them.

    Each distinct known source is ranked once, on its first cascade, and
    every cascade of that source is scored against that ranking. Cascades
    whose source is unknown to the model score 0 and are flagged
    rather than skipped. Test users are matched to the model through their
    string tokens when the model carries a token table; otherwise ids are
    assumed shared. `threads` is accepted for compatibility and ignored:
    scoring runs serially, since a thread pool only adds GIL hand-offs.
    """
    if test.num_cascades == 0:
        raise ValueError("cannot evaluate an empty test set")
    if model.tokens:
        def to_model_id(user: int) -> int | None:
            return model.user_id(test.token(user))
    else:
        def to_model_id(user: int) -> int | None:
            return user

    rankings: dict[int, list[int]] = {}

    def score(cascade: Cascade) -> CascadeScore:
        truth_total = cascade.num_infected
        source = to_model_id(cascade.source)
        if source is None or model.influence_point(source) is None:
            return CascadeScore(
                cascade.cascade_id, 0.0, 0, truth_total, source_known=False
            )
        ranked = rankings.get(source)
        if ranked is None:
            ranked = rankings[source] = [u for u, _ in rank_for_source(model, source).ranking]
        truth = {
            mapped
            for mapped in (to_model_id(u) for u in cascade.infected)
            if mapped is not None
        }
        ap = _prefix_ap(ranked, truth, truth_total)
        unseen = truth_total - len(truth.intersection(ranked))
        return CascadeScore(cascade.cascade_id, ap, len(ranked), unseen)

    scores = [score(c) for c in test.cascades]
    mean_ap = sum(s.ap for s in scores) / len(scores)
    return EvalReport(tuple(scores), mean_ap)


def report_json_lines(report: EvalReport) -> str:
    """One JSON object per cascade, then a summary object with map and counts."""
    lines = [
        json.dumps(
            {
                "id": s.cascade_id,
                "ap": s.ap,
                "candidates": s.candidate_count,
                "unseen": s.unseen_count,
            }
        )
        for s in report.per_cascade
    ]
    lines.append(
        json.dumps(
            {
                "map": report.map,
                "cascades": report.num_cascades,
                "unknown_sources": report.num_unknown_sources,
                "unseen": report.total_unseen,
            }
        )
    )
    return "\n".join(lines) + "\n"


def report_tsv(report: EvalReport) -> str:
    """TSV rows mirroring the JSON report; summary on a '#' trailer line."""
    rows = ["cascade_id\tap\tcandidates\tunseen"]
    rows.extend(
        f"{s.cascade_id}\t{s.ap!r}\t{s.candidate_count}\t{s.unseen_count}"
        for s in report.per_cascade
    )
    rows.append(
        f"#map\t{report.map!r}\tcascades={report.num_cascades}"
        f"\tunknown_sources={report.num_unknown_sources}\tunseen={report.total_unseen}"
    )
    return "\n".join(rows) + "\n"
