"""Distance ranking for a source and average-precision scoring.

A ranking belongs to a source, not to a cascade: it orders the source's
whole susceptibility space, so `evaluate` ranks each distinct test source
once and scores all of that source's cascades against the one ranking.
`rank_for_source` computes the source's squared distances with the same
array expression `EmbeddingModel.distance_sq` uses, so every ranked
distance is bit-equal to the scalar one.

The AP of a ranking against a truth cascade with R infected users: for each
truth user found at position k of the ranking add |top-k of ranking that are
truth| / k, then divide by R. Truth users absent from the ranking contribute
zero, so sparse candidate coverage is penalized rather than skipped.
`_prefix_ap` walks a ranking to compute it and is the reference;
`evaluate` keeps one `{user: position}` map per ranked source and sums the
same terms from a cascade's sorted truth positions, in O(truth users) per
cascade.

Each score also carries `chance_ap`, the expected AP of a uniformly random
ranking of the same candidates. For r of the R truth users among N
candidates it is (r/R)·((r−1)/(N−1)·(N−H_N) + H_N)/N, with H_N the N-th
harmonic number (Bestgen, PBML 103, 2015); it is r/R for N = 1 and 0 when
nothing is ranked. `EvalReport.chance_map` is its mean over cascades.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
    chance_ap: float = 0.0


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

    @property
    def chance_map(self) -> float:
        """Mean over cascades of the expected AP of a random ranking."""
        return sum(s.chance_ap for s in self.per_cascade) / len(self.per_cascade)


def rank_for_source(model: EmbeddingModel, source: int) -> RankedPrediction:
    """Rank every user of the source's susceptibility space by distance.

    The candidate set is the full space minus the source itself; raises for
    sources without an influence coordinate.
    """
    if model.influence_point(source) is None:
        raise ModelError(f"user {source} has no influence coordinate")
    users, d2 = model._space_distances(source)
    order = np.lexsort((users, d2))
    return RankedPrediction(source, tuple(zip(users[order].tolist(), d2[order].tolist())))


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


def _positions_ap(found: list[int], truth_total: int) -> float:
    """`_prefix_ap` from the ascending 1-based positions of the truth users
    found in the ranking: the same terms, added in the same order."""
    if truth_total < 1:
        raise ValueError("truth cascade has no infected users")
    total = 0.0
    for hits, k in enumerate(found, start=1):
        total += hits / k
    return total / truth_total


def _chance_ap(found: int, truth_total: int, candidates: int, harmonic: float) -> float:
    """Expected AP of a uniformly random ranking of `candidates` users,
    `found` of them among the `truth_total` truth users; `harmonic` is
    H_candidates (see module docstring)."""
    if not found:
        return 0.0
    spread = (found - 1) / (candidates - 1) * (candidates - harmonic) if found > 1 else 0.0
    return found / truth_total * (spread + harmonic) / candidates


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

    Each distinct known source is ranked once, on its first cascade, into a
    `{user: position}` map, and every cascade of that source is scored from
    its truth users' positions in that map: O(truth users) per cascade, with
    `_prefix_ap`'s arithmetic. Cascades whose source is unknown to the
    model score 0 and are flagged rather than skipped. Test users are matched to the model through their
    string tokens when the model carries a token table; otherwise ids are
    assumed shared. `threads` is accepted for compatibility and ignored:
    scoring runs serially, since a thread pool only adds GIL hand-offs.
    """
    if test.num_cascades == 0:
        raise ValueError("cannot evaluate an empty test set")
    # test user id -> model user id, None for a token the model lacks
    to_model = ([model.user_id(token) for token in test.tokens] if model.tokens
                else range(len(test.tokens)))
    known = model.influence_users()
    # per ranked source: {user: 1-based position} and the harmonic number H_N
    ranked: dict[int, tuple[dict[int, int], float]] = {}
    scores = []
    for cascade in test.cascades:
        truth_total = cascade.num_infected
        source = to_model[cascade.source]
        if source not in known:
            scores.append(CascadeScore(cascade.cascade_id, 0.0, 0, truth_total,
                                       source_known=False))
            continue
        entry = ranked.get(source)
        if entry is None:
            ranking = rank_for_source(model, source).ranking
            positions = {user: k for k, (user, _) in enumerate(ranking, start=1)}
            harmonic = math.fsum(1.0 / k for k in range(1, len(positions) + 1))
            entry = ranked[source] = positions, harmonic
        positions, harmonic = entry
        found = sorted({positions[u] for u in map(to_model.__getitem__, cascade.infected)
                        if u in positions})
        scores.append(CascadeScore(
            cascade.cascade_id,
            _positions_ap(found, truth_total),
            len(positions),
            truth_total - len(found),
            chance_ap=_chance_ap(len(found), truth_total, len(positions), harmonic),
        ))
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
