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
`_prefix_ap` walks a ranking to compute it and is the reference.

`evaluate` works on the test set's columns. It keys every ranked candidate
by (source, user) and sorts the keys once; one `searchsorted` finds every
truth user's position; and one `bincount` adds each cascade's hits/k terms
in ascending k, the additions `_prefix_ap` makes, in its order. Its cost is
O(truth users + Σ ranked candidates), the sum over distinct known sources,
up to the log factor of its sorts.

Each score also carries `chance_ap`, the expected AP of a uniformly random
ranking of the same candidates. For r of the R truth users among N
candidates it is (r/R)·((r−1)/(N−1)·(N−H_N) + H_N)/N, with H_N the N-th
harmonic number (Bestgen, PBML 103, 2015); it is r/R for N = 1 and 0 when
nothing is ranked. `_chance_ap` is the scalar reference; `evaluate` makes
the same operations on columns. `EvalReport.chance_map` is its mean over
cascades. `EvalReport.summary` holds the MAP and counts that the JSON report's
last line, the TSV report's `#map` trailer and the eval manifest all write.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

import numpy as np

from casembed.combinations import _sorted_runs
from casembed.data import Cascade, CascadeDataset, _check_cascade_ids, _freeze
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


class EvalReport:
    """Per-cascade scores as columns in test-set order, plus their MAP.

    Columns: `cascade_ids`, `ap`, `candidate_count`, `unseen_count`,
    `source_known` and `chance_ap`, the arrays read-only; `per_cascade`
    hands out `CascadeScore` views, and `summary` the MAP and counts.
    """

    def __init__(self, cascade_ids, ap, candidate_count, unseen_count, source_known,
                 chance_ap, map: float):
        self.cascade_ids: tuple[str, ...] = tuple(cascade_ids)
        columns = (np.array(ap, np.float64), np.array(candidate_count, np.int64),
                   np.array(unseen_count, np.int64), np.array(source_known, bool),
                   np.array(chance_ap, np.float64))
        (self.ap, self.candidate_count, self.unseen_count, self.source_known,
         self.chance_ap) = _freeze(*columns)
        self.map = map

    def _columns(self):
        return (self.ap, self.candidate_count, self.unseen_count, self.source_known,
                self.chance_ap)

    def __eq__(self, other):
        if not isinstance(other, EvalReport):
            return NotImplemented
        return (self.cascade_ids == other.cascade_ids and self.map == other.map
                and all(np.array_equal(a, b)
                        for a, b in zip(self._columns(), other._columns())))

    @property
    def per_cascade(self) -> tuple[CascadeScore, ...]:
        return tuple(map(CascadeScore, self.cascade_ids,
                         *(column.tolist() for column in self._columns())))

    @property
    def num_cascades(self) -> int:
        return len(self.cascade_ids)

    @property
    def num_unknown_sources(self) -> int:
        return len(self.source_known) - int(np.count_nonzero(self.source_known))

    @property
    def total_unseen(self) -> int:
        return int(self.unseen_count.sum())

    @property
    def summary(self) -> dict:
        """MAP and the counts, in the order the reports and the eval manifest
        write them: `map`, `cascades`, `unknown_sources`, `unseen`."""
        return {"map": self.map, "cascades": self.num_cascades,
                "unknown_sources": self.num_unknown_sources, "unseen": self.total_unseen}

    @property
    def chance_map(self) -> float:
        """Mean over cascades of the expected AP of a random ranking."""
        return sum(self.chance_ap.tolist()) / len(self.chance_ap)


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


def _model_ids(model: EmbeddingModel, test: CascadeDataset) -> np.ndarray:
    """Model id of each test user id, -1 for a token the model lacks; ids
    are shared when the model has no token table. One pass looks each model
    token up in a transient index over the test tokens, and a scatter
    inverts the result; neither side's own index is built."""
    if not model.tokens:
        return np.arange(len(test.tokens), dtype=np.int64)
    index = {tok: i for i, tok in enumerate(test.tokens)}
    test_ids = np.fromiter(map(index.get, model.tokens, itertools.repeat(-1)), np.int64,
                           len(model.tokens))
    del index
    shared = np.flatnonzero(test_ids >= 0)
    ids = np.full(len(test.tokens), -1, dtype=np.int64)
    ids[test_ids[shared]] = shared
    return ids


def evaluate(
    model: EmbeddingModel, test: CascadeDataset, threads: int | None = None
) -> EvalReport:
    """Score every test cascade; MAP is the mean AP over all of them.

    Each distinct known source is ranked once by `rank_for_source`. Every
    ranked candidate gets a (source, user) key, and one sort of the keys and
    one `searchsorted` give each truth user its 1-based position, if ranked.
    Sorted by cascade and position, truth user number `hits` found at
    position k adds hits/k, and one `bincount` sums each cascade's terms in
    ascending k: `_prefix_ap`'s additions in its order, so each AP is
    bit-equal to it. Cascades whose source is unknown to the model score 0
    and are flagged rather than skipped. Test users are matched to the model
    through their string tokens when the model carries a token table, in
    O(model tokens + test tokens) time, with a transient index over the test
    tokens and one int64 word per model token; otherwise ids are assumed
    shared. `threads` is accepted for compatibility and ignored: scoring
    runs serially.
    """
    if test.num_cascades == 0:
        raise ValueError("cannot evaluate an empty test set")
    offsets = test.offsets
    cascades = len(offsets) - 1
    truth_total = np.diff(offsets) - 1
    users = _model_ids(model, test)[test.flat_users]  # -1: not in the model
    distinct, part = np.unique(users[offsets[:-1]], return_inverse=True)
    # Part p holds the ranked model ids of source distinct[p], in rank order:
    # each known source is ranked once, and an unknown source's part is empty.
    # A -1 source is a token the model lacks, even if the model holds id -1.
    known_users = model.influence_users()
    known = np.fromiter(map(known_users.__contains__, distinct.tolist()), bool, len(distinct))
    known &= distinct >= 0
    parts = []
    for source, source_known in zip(distinct.tolist(), known.tolist()):
        ranking = rank_for_source(model, source).ranking if source_known else ()
        parts.append(np.fromiter(map(itemgetter(0), ranking), np.int64, len(ranking)))
    sizes = np.array([len(ranked) for ranked in parts], dtype=np.int64)
    candidate_count = sizes[part]
    harmonic = np.array([math.fsum(1.0 / k for k in range(1, n + 1)) for n in sizes.tolist()])
    # Key a candidate by part · (width + 1) + user; users no truth user can
    # be (past the largest truth id, or negative) share the key of slot width.
    width = int(users.max()) + 1
    key = np.concatenate(parts)
    del parts
    np.copyto(key, width, where=(key < 0) | (key > width))
    key += np.repeat(np.arange(len(sizes), dtype=np.int64) * (width + 1), sizes)
    ordered, index = _sorted_runs(key)  # index: place in the concatenated rankings
    del key
    # every infected user the model has, with its truth key
    infected = np.ones(len(users), dtype=bool)
    infected[offsets[:-1]] = False
    cascade_of = np.repeat(np.arange(cascades), truth_total + 1)
    infected &= users >= 0
    truth_cascade = cascade_of[infected]
    del cascade_of
    truth_key = part[truth_cascade] * (width + 1) + users[infected]
    del infected
    at = np.searchsorted(ordered, truth_key)
    at[at == len(ordered)] = 0
    found = ordered[at] == truth_key if len(ordered) else np.zeros(len(at), dtype=bool)
    del truth_key
    truth_cascade = truth_cascade[found]
    # 1-based position within the cascade's source ranking
    position = index[at[found]] - (np.cumsum(sizes) - sizes)[part[truth_cascade]] + 1
    del at, found, ordered, index
    order = np.lexsort((position, truth_cascade))
    truth_cascade = truth_cascade[order]
    position = position[order]
    del order
    hits_found = np.bincount(truth_cascade, minlength=cascades)
    # hits: rank of each found truth user within its cascade, from 1
    hits = np.arange(1, len(position) + 1) - np.repeat(
        np.cumsum(hits_found) - hits_found, hits_found)
    ap = np.bincount(truth_cascade, weights=hits / position, minlength=cascades) / truth_total
    chance_ap = _chance_aps(hits_found, truth_total, candidate_count, harmonic[part])
    # a running sum in cascade order, as a loop over the scores would add
    mean_ap = sum(ap.tolist()) / cascades
    return EvalReport(test.cascade_ids, ap, candidate_count, truth_total - hits_found,
                      known[part], chance_ap, mean_ap)


def _chance_aps(found, truth_total, candidates, harmonic) -> np.ndarray:
    """`_chance_ap` over columns, with its operations in its order; entries
    with nothing found are 0, as there."""
    found, truth_total = found.astype(np.float64), truth_total.astype(np.float64)
    candidates = candidates.astype(np.float64)
    spread = np.zeros(len(found))
    many = found > 1
    spread[many] = ((found[many] - 1) / (candidates[many] - 1)
                    * (candidates[many] - harmonic[many]))
    chance = np.zeros(len(found))
    some = found > 0
    chance[some] = (found[some] / truth_total[some] * (spread[some] + harmonic[some])
                    / candidates[some])
    return chance


def _rows(report: EvalReport):
    """Each cascade's id, AP, candidate count and unseen count, in test-set order."""
    return zip(report.cascade_ids, report.ap.tolist(), report.candidate_count.tolist(),
               report.unseen_count.tolist())


def report_json_lines(report: EvalReport) -> str:
    """One JSON object per cascade, then `report.summary` as one object.

    Rows are formatted as `json.dumps` would write them: the id through
    its ASCII string encoder, floats by `repr`, ints in decimal.
    """
    encode = json.encoder.encode_basestring_ascii
    lines = [
        f'{{"id": {encode(cascade_id)}, "ap": {ap!r}, "candidates": {candidates},'
        f' "unseen": {unseen}}}'
        for cascade_id, ap, candidates, unseen in _rows(report)
    ]
    lines.append(json.dumps(report.summary))
    return "\n".join(lines) + "\n"


def report_tsv(report: EvalReport) -> str:
    """TSV rows mirroring the JSON report, `report.summary` on a '#map' trailer line.
    A cascade id a row cannot carry raises CascadeValidationError, naming it."""
    _check_cascade_ids(report.cascade_ids)
    rows = ["cascade_id\tap\tcandidates\tunseen"]
    rows.extend(f"{cascade_id}\t{ap!r}\t{candidates}\t{unseen}"
                for cascade_id, ap, candidates, unseen in _rows(report))
    (_, mean), *counts = report.summary.items()
    rows.append("\t".join([f"#map\t{mean!r}", *(f"{name}={value}" for name, value in counts)]))
    return "\n".join(rows) + "\n"
