import itertools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casembed.data import (
    Cascade,
    CascadeDataset,
    CascadeValidationError,
    parse_cascade_file,
    split_dataset,
)
from casembed.evaluate import (
    EvalReport,
    RankedPrediction,
    _chance_ap,
    _prefix_ap,
    average_precision,
    evaluate,
    rank_for_source,
    report_json_lines,
    report_tsv,
)
from casembed.model import (
    VARIANTS,
    EmbeddingModel,
    ModelError,
    load_model,
    load_model_file,
    save_model,
    save_model_file,
)
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import TrainConfig, train


def _model(source_point, candidates, tokens=()):
    """Independent model with one source (id 0) and explicit candidate points."""
    coords = [np.asarray(source_point, dtype=float)]
    space = {}
    for user, point in candidates.items():
        space[user] = len(coords)
        coords.append(np.asarray(point, dtype=float))
    return EmbeddingModel(
        len(source_point), "independent", np.array(coords), {0: 0},
        spaces={0: space}, tokens=tokens,
    )


class TestRankForSource:
    def test_orders_by_distance(self):
        model = _model([0.0, 0.0], {1: [1.0, 0.0], 2: [0.0, 2.0], 3: [0.5, 0.0]})
        pred = rank_for_source(model, 0)
        assert [u for u, _ in pred.ranking] == [3, 1, 2]
        assert [d for _, d in pred.ranking] == pytest.approx([0.25, 1.0, 4.0])

    def test_tie_broken_by_user_id(self):
        model = _model([0.0, 0.0], {5: [1.0, 0.0], 2: [0.0, 1.0], 9: [-1.0, 0.0]})
        pred = rank_for_source(model, 0)
        assert [u for u, _ in pred.ranking] == [2, 5, 9]

    def test_empty_space(self):
        model = _model([0.0, 0.0], {})
        pred = rank_for_source(model, 0)
        assert pred.ranking == ()

    def test_unknown_source_raises(self):
        model = _model([0.0, 0.0], {1: [1.0, 0.0]})
        with pytest.raises(ModelError, match="influence"):
            rank_for_source(model, 42)

    def test_source_excluded_from_candidates(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        model = EmbeddingModel(
            2, "independent", coords, {0: 0}, spaces={0: {0: 2, 1: 1}}
        )
        pred = rank_for_source(model, 0)
        assert [u for u, _ in pred.ranking] == [1]

    def test_deterministic_under_insertion_order(self):
        points = {u: [float(u), 0.0] for u in (4, 1, 3, 2)}
        a = rank_for_source(_model([0.0, 0.0], points), 0)
        b = rank_for_source(_model([0.0, 0.0], dict(sorted(points.items()))), 0)
        assert a == b


def _prediction(users, source=0):
    return RankedPrediction(source, tuple((u, float(k)) for k, u in enumerate(users)))


class TestAveragePrecision:
    def test_hand_example(self):
        # truth {B,C,D} at ranking positions 1, 3, 5 of (B,X,C,Y,D)
        b, x, c, y, d = 1, 2, 3, 4, 5
        pred = _prediction([b, x, c, y, d])
        truth = Cascade("t", (0, b, c, d))
        expected = (1 / 1 + 2 / 3 + 3 / 5) / 3
        assert average_precision(pred, truth) == pytest.approx(expected)
        assert average_precision(pred, truth) == pytest.approx(0.7556, abs=1e-4)

    def test_perfect_prefix(self):
        pred = _prediction([7, 8, 9, 10, 11])
        truth = Cascade("t", (0, 7, 8, 9))
        assert average_precision(pred, truth) == 1.0

    def test_total_miss(self):
        pred = _prediction([7, 8, 9])
        truth = Cascade("t", (0, 1, 2))
        assert average_precision(pred, truth) == 0.0

    def test_missing_truth_users_contribute_zero(self):
        pred = _prediction([1, 2])
        truth = Cascade("t", (0, 1, 99))  # 99 unranked
        assert average_precision(pred, truth) == pytest.approx((1 / 1) / 2)

    def test_source_mismatch_rejected(self):
        pred = _prediction([1, 2])
        with pytest.raises(ValueError, match="source"):
            average_precision(pred, Cascade("t", (5, 1, 2)))

    def test_empty_truth_refused(self):
        # no `Cascade` has zero infected users, so only a direct call gets here
        with pytest.raises(ValueError, match="no infected users"):
            _prefix_ap([1, 2], set(), 0)

    def test_matches_prefix_enumeration_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            ranking = list(map(int, rng.permutation(n)))
            truth_size = int(rng.integers(1, n + 3))
            truth = set(map(int, rng.choice(n + 2, size=truth_size, replace=False)))
            pred = _prediction(ranking, source=10_000)
            cascade = Cascade("t", tuple([10_000] + sorted(truth)))
            # oracle: recount every prefix intersection from scratch
            expected = 0.0
            for k in range(1, n + 1):
                if ranking[k - 1] in truth:
                    expected += len(set(ranking[:k]) & truth) / k
            expected /= len(truth)
            assert average_precision(pred, cascade) == expected

    def test_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            ranking = list(map(int, rng.permutation(n)))
            truth = set(map(int, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
            pred = _prediction(ranking, source=999)
            ap = average_precision(pred, Cascade("t", tuple([999] + sorted(truth))))
            assert 0.0 <= ap <= 1.0


class TestEvaluate:
    def _pipeline(self):
        world = generate_world(3, 8, 2, seed=61)
        train_set = emit_cascades(world, 40, 5, seed=62)
        test_set = emit_cascades(world, 10, 8, seed=63)
        model, _ = train(train_set, TrainConfig(epochs=100, dimension=4, seed=1))
        return model, test_set

    def test_map_is_mean_of_aps(self):
        model, test_set = self._pipeline()
        report = evaluate(model, test_set)
        assert report.map == pytest.approx(
            sum(s.ap for s in report.per_cascade) / report.num_cascades
        )
        assert report.num_cascades == test_set.num_cascades

    def test_simple_mean(self):
        # two cascades scoring 1.0 and 0.5 average to 0.75
        model = _model(
            [0.0, 0.0],
            {1: [1.0, 0.0], 2: [2.0, 0.0]},
            tokens=("s", "a", "b"),
        )
        rows = [("c1", ["s", "a", "b"]), ("c2", ["s", "a", "missing"])]
        test_set = CascadeDataset.from_token_rows(rows)
        report = evaluate(model, test_set)
        by_id = {s.cascade_id: s for s in report.per_cascade}
        assert by_id["c1"].ap == pytest.approx(1.0)
        # truth {a, missing}: a tops the ranking, 'missing' contributes 0
        assert by_id["c2"].ap == pytest.approx(0.5)
        assert by_id["c2"].unseen_count == 1
        assert report.map == pytest.approx(0.75)

    def test_unknown_sources_score_zero_and_flagged(self):
        model = _model([0.0, 0.0], {1: [1.0, 0.0]}, tokens=("s", "a"))
        test_set = CascadeDataset.from_token_rows(
            [("c1", ["ghost", "a"]), ("c2", ["phantom", "a"])]
        )
        report = evaluate(model, test_set)
        assert report.map == 0.0
        assert report.num_unknown_sources == 2
        assert all(not s.source_known for s in report.per_cascade)

    def test_unknown_source_is_not_the_model_id_minus_one(self):
        # An unknown token maps to -1; a model holding id -1 must not rank for it.
        model = EmbeddingModel(1, "single_space", np.array([[0.0], [1.0], [2.0]]),
                               {-1: 0, 0: 1, 1: 2}, tokens=("a", "b"))
        report = evaluate(model, CascadeDataset.from_token_rows([("c", ["zz", "a", "b"])]))
        assert report.num_unknown_sources == 1
        assert report.map == 0.0
        assert not report.per_cascade[0].source_known

    def test_report_never_equal_to_another_type(self):
        model = _model([0.0], {1: [1.0]}, tokens=("s", "a"))
        report = evaluate(model, CascadeDataset.from_token_rows([("c", ["s", "a"])]))
        assert report != report.map and not report == report.summary

    def test_empty_test_set_rejected(self):
        model = _model([0.0], {1: [1.0]})
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, CascadeDataset.from_token_rows([]))

    def test_map_invariant_under_reordering(self):
        model, test_set = self._pipeline()
        reordered = CascadeDataset(list(reversed(test_set.cascades)), test_set.tokens)
        assert evaluate(model, reordered).map == pytest.approx(evaluate(model, test_set).map)

    def test_ranks_each_known_source_once(self, monkeypatch):
        model, test_set = self._pipeline()
        rows = [(c.cascade_id, [test_set.token(u) for u in c.users]) for c in test_set]
        rows.append(("ghost-c0", ["ghost", test_set.token(test_set[0].infected[0])]))
        test_set = CascadeDataset.from_token_rows(rows)
        calls = []

        def counting(model, source):
            calls.append(source)
            return rank_for_source(model, source)

        # The package re-exports the function `evaluate` under the module's name.
        monkeypatch.setattr(sys.modules["casembed.evaluate"], "rank_for_source", counting)
        report = evaluate(model, test_set)
        sources = {model.user_id(test_set.token(c.source)) for c in test_set} - {None}
        assert len(sources) < test_set.num_cascades - 1  # sources repeat
        assert sorted(calls) == sorted(sources)
        unseen = 0
        for cascade, scored in zip(test_set, report.per_cascade):
            users = tuple(model.user_id(test_set.token(u)) for u in cascade.users)
            if users[0] is None:
                assert not scored.source_known
                continue
            # a user the train split never saw is a miss: a distinct negative
            # id, which no ranking holds
            unseen += users.count(None)
            users = tuple(-2 - k if u is None else u for k, u in enumerate(users))
            prediction = rank_for_source(model, users[0])
            assert scored.ap == average_precision(prediction, Cascade("t", users))
            assert scored.candidate_count == len(prediction.ranking)
        assert unseen > 0  # the reference scores misses, too

    def test_threads_do_not_change_results(self):
        model, test_set = self._pipeline()
        serial = evaluate(model, test_set, threads=1)
        pooled = evaluate(model, test_set, threads=4)
        assert serial == pooled

    def test_random_model_map_near_membership_baseline(self):
        # an untrained model ranks its candidates in random order, so over
        # init seeds its MAP averages to the expected AP of a uniformly
        # random ranking of the same candidates
        world = generate_world(4, 20, 3, seed=77)
        train_set = emit_cascades(world, 80, 8, seed=78)
        test_set = emit_cascades(world, 50, 8, seed=79)
        reports = [
            evaluate(train(train_set, TrainConfig(epochs=0, dimension=6, seed=seed))[0],
                     test_set)
            for seed in range(30)
        ]
        assert {report.chance_map for report in reports} == {reports[0].chance_map}
        mean = float(np.mean([report.map for report in reports]))
        assert mean == pytest.approx(reports[0].chance_map, abs=0.05)


class TestReports:
    def _report(self):
        model, test_set = TestEvaluate()._pipeline()
        return evaluate(model, test_set)

    def test_json_lines_shape(self):
        report = self._report()
        lines = report_json_lines(report).splitlines()
        assert len(lines) == report.num_cascades + 1
        first = json.loads(lines[0])
        assert set(first) == {"id", "ap", "candidates", "unseen"}
        summary = json.loads(lines[-1])
        assert summary["map"] == report.map
        assert summary["cascades"] == report.num_cascades

    def test_tsv_matches_json_values(self):
        report = self._report()
        json_lines = report_json_lines(report).splitlines()
        tsv_lines = report_tsv(report).splitlines()
        assert tsv_lines[0] == "cascade_id\tap\tcandidates\tunseen"
        assert len(tsv_lines) == len(json_lines) + 1  # TSV adds a header row
        for json_line, tsv_line in zip(json_lines[:-1], tsv_lines[1:-1]):
            obj = json.loads(json_line)
            cells = tsv_line.split("\t")
            assert cells[0] == obj["id"]
            assert float(cells[1]) == obj["ap"]
            assert int(cells[2]) == obj["candidates"]
            assert int(cells[3]) == obj["unseen"]
        assert float(tsv_lines[-1].split("\t")[1]) == report.map

    # the ids serialize_cascades refuses (tests/test_data.py)
    @pytest.mark.parametrize("cascade_id", ["", " \x0b", "a\tb", "a\nb", "a\rb", "#x"])
    def test_tsv_rejects_ids_a_row_cannot_carry(self, cascade_id):
        """Such an id would add a field, split a row, or read as the trailer."""
        test = CascadeDataset.from_token_rows([("ok", ["a", "b"]), (cascade_id, ["a", "c"])])
        report = evaluate(_model([0.0], {1: [1.0], 2: [2.0]}, tokens=("a", "b", "c")), test)
        assert json.loads(report_json_lines(report).splitlines()[1])["id"] == cascade_id
        with pytest.raises(CascadeValidationError, match=re.escape(repr(cascade_id))):
            report_tsv(report)


@st.composite
def _tied_models(draw):
    """Models of every variant over users 0..7 whose coordinates come from a
    few values, so distances tie and points coincide."""
    variant = draw(st.sampled_from(VARIANTS))
    dimension = draw(st.integers(1, 3))
    block = st.lists(st.integers(0, 7), max_size=7, unique=True)
    influence = draw(block.filter(bool))
    spaces = shared = None
    points = list(influence)
    if variant == "independent":
        sources = draw(st.lists(st.sampled_from(influence), unique=True))
        spaces = {s: draw(block) for s in sources}
        for space in spaces.values():
            points += space
    elif variant == "shared_susceptibility":
        shared = draw(block)
        points += shared
    values = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, 3.0, 1e-300])
    coords = np.array(draw(st.lists(st.lists(values, min_size=dimension, max_size=dimension),
                                    min_size=len(points), max_size=len(points))), dtype=float)
    rows = iter(range(len(points)))
    influence = {u: next(rows) for u in influence}
    if spaces is not None:
        spaces = {s: {u: next(rows) for u in users} for s, users in spaces.items()}
    if shared is not None:
        shared = {u: next(rows) for u in shared}
    return EmbeddingModel(dimension, variant, coords.reshape(len(points), dimension),
                          influence, spaces=spaces, shared_space=shared)


class TestAgainstReferences:
    """Ranking and position-map scoring against their scalar references."""

    @settings(max_examples=150)
    @given(model=_tied_models())
    def test_ranking_matches_sorted_scalar_distances(self, model):
        for source in model.influence_users():
            space = model.space_of(source) or {}
            expected = sorted((u for u in space if u != source),
                              key=lambda u: (model.distance_sq(source, u), u))
            ranking = rank_for_source(model, source).ranking
            assert [u for u, _ in ranking] == expected
            for user, d2 in ranking:
                assert d2.hex() == model.distance_sq(source, user).hex()

    @settings(max_examples=150)
    @given(model=_tied_models(), data=st.data())
    def test_scores_match_prefix_ap_over_the_full_ranking(self, model, data):
        # ids 8 and 9 are never embedded: unknown sources or unseen users
        users = st.lists(st.integers(0, 9), min_size=2, max_size=6, unique=True)
        cascades = [Cascade(f"c{k}", tuple(u)) for k, u in
                    enumerate(data.draw(st.lists(users, min_size=1, max_size=6)))]
        report = evaluate(model, CascadeDataset(cascades, [f"t{i}" for i in range(10)]))
        for cascade, scored in zip(cascades, report.per_cascade):
            if model.influence_point(cascade.source) is None:
                assert (scored.ap, scored.candidate_count, scored.source_known) == (0.0, 0, False)
                assert scored.unseen_count == cascade.num_infected
                continue
            ranked = [u for u, _ in rank_for_source(model, cascade.source).ranking]
            truth = set(cascade.infected)
            assert scored.ap == _prefix_ap(ranked, truth, cascade.num_infected)
            assert scored.candidate_count == len(ranked)
            assert scored.unseen_count == cascade.num_infected - len(truth & set(ranked))


def _enumerated_chance_ap(found, truth_total, candidates):
    """Mean AP over every placement of `found` truth users among
    `candidates` ranked positions (all rankings, grouped by placement)."""
    aps = [
        sum(hits / k for hits, k in enumerate(placement, start=1)) / truth_total
        for placement in itertools.combinations(range(1, candidates + 1), found)
    ]
    return sum(aps) / len(aps)


class TestChanceMap:
    @pytest.mark.parametrize("candidates", range(0, 7))
    def test_matches_enumeration_of_all_rankings(self, candidates):
        harmonic = sum(1 / k for k in range(1, candidates + 1))
        for truth_total in range(1, candidates + 3):
            for found in range(0, min(truth_total, candidates) + 1):
                expected = _enumerated_chance_ap(found, truth_total, candidates)
                got = _chance_ap(found, truth_total, candidates, harmonic)
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_report_mean_over_cascades(self):
        # four candidates; c1 finds 2 of 2 truth users, c2 finds 1 of 2,
        # and the unknown source of c3 scores 0
        model = _model([0.0], {1: [1.0], 2: [2.0], 3: [3.0], 4: [4.0]},
                       tokens=("s", "a", "b", "c", "d"))
        test_set = CascadeDataset.from_token_rows(
            [("c1", ["s", "a", "d"]), ("c2", ["s", "b", "ghost"]), ("c3", ["ghost", "a"])]
        )
        report = evaluate(model, test_set)
        expected = [_enumerated_chance_ap(2, 2, 4), _enumerated_chance_ap(1, 2, 4), 0.0]
        assert [s.chance_ap for s in report.per_cascade] == pytest.approx(expected, rel=1e-12)
        assert report.chance_map == pytest.approx(sum(expected) / 3, rel=1e-12)
        h4 = 1 + 1 / 2 + 1 / 3 + 1 / 4
        assert expected[0] == pytest.approx((1 / 3 * (4 - h4) + h4) / 4, rel=1e-12)


def _scored_by_loop(model, test):
    """Per-cascade reference: rank the source, score with `_prefix_ap` and
    `_chance_ap`; then MAP and chance MAP as running sums in cascade order."""
    rows = []
    for cascade in test:
        users = [model.user_id(test.token(u)) if model.tokens else u for u in cascade.users]
        source, truth_total = users[0], cascade.num_infected
        if source is None or model.influence_point(source) is None:
            rows.append(("unknown", cascade.cascade_id, 0.0, 0, truth_total, 0.0))
            continue
        ranked = [u for u, _ in rank_for_source(model, source).ranking]
        truth = {u for u in users[1:] if u is not None}
        found = len(truth & set(ranked))
        harmonic = math.fsum(1.0 / k for k in range(1, len(ranked) + 1))
        rows.append(("known", cascade.cascade_id, _prefix_ap(ranked, truth, truth_total),
                     len(ranked), truth_total - found,
                     _chance_ap(found, truth_total, len(ranked), harmonic)))
    aps = [row[2] for row in rows]
    chances = [row[5] for row in rows]
    return rows, sum(aps) / len(aps), sum(chances) / len(chances)


def _scored(report):
    rows = [("known" if s.source_known else "unknown", s.cascade_id, s.ap, s.candidate_count,
             s.unseen_count, s.chance_ap) for s in report.per_cascade]
    return rows, report.map, report.chance_map


def _hex(scored):
    rows, map_, chance_map = scored
    return ([tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows],
            map_.hex(), chance_map.hex())


@settings(max_examples=300)
@given(model=_tied_models(), data=st.data())
def test_evaluate_matches_the_per_cascade_loop_bit_for_bit(model, data):
    """With or without a token table. Through one, test tokens t8 and t9
    are unknown to the model, and the test set interns tokens in its own
    order; without one, ids 8 and 9 are never embedded."""
    if data.draw(st.booleans(), label="tokens"):
        model = EmbeddingModel._from_blocks(
            model.dimension, model.variant, model.coords, model._blocks, model._spaces,
            {f"t{i}": i for i in range(8)})
    users = st.lists(st.integers(0, 9), min_size=2, max_size=6, unique=True)
    rows = [(f"c{k}", [f"t{u}" for u in row])
            for k, row in enumerate(data.draw(st.lists(users, min_size=1, max_size=8)))]
    if model.tokens:
        test = CascadeDataset.from_token_rows(rows)
    else:
        test = CascadeDataset([Cascade(cid, tuple(int(t[1:]) for t in row)) for cid, row in rows],
                              [f"t{i}" for i in range(10)])
    report = evaluate(model, test)
    assert _hex(_scored(report)) == _hex(_scored_by_loop(model, test))


def test_evaluate_memory_is_linear_in_truth_and_ranked_candidates(traced):
    """40 sources with 500-user spaces, 400 test cascades of 5 infected.
    Bound fixed before the array scoring was written: 40 bytes per truth
    user plus ranked candidate; per-source position dicts measured 86."""
    rng = np.random.default_rng(2)
    sources, pool = 40, 500
    tokens = [f"s{s}" for s in range(sources)] + [f"u{u}" for u in range(sources * pool)]
    # user u has token id and coordinate row sources + u
    spaces = {s: {sources + u: sources + u for u in range(s * pool, (s + 1) * pool)}
              for s in range(sources)}
    model = EmbeddingModel(8, "independent", rng.standard_normal((sources + sources * pool, 8)),
                           {s: s for s in range(sources)}, spaces=spaces, tokens=tuple(tokens))
    rows = [(f"s{s}-c{k}", [f"s{s}"] + [f"u{u}" for u in
                                        (rng.choice(pool, 5, replace=False) + s * pool).tolist()])
            for s in range(sources) for k in range(10)]
    test = CascadeDataset.from_token_rows(rows)
    report, _, peak = traced(evaluate, model, test)
    truth = 5 * len(rows)
    ranked = sources * pool
    assert report.num_unknown_sources == 0 and report.total_unseen == 0
    assert peak <= 40 * (truth + ranked)


@settings(max_examples=100)
@given(ids=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6),
       aps=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_report_rows_are_what_json_dumps_writes(ids, aps):
    """Any id, including quotes, backslashes, control and non-ASCII text."""
    n = len(ids)
    report = EvalReport(ids, aps[:n], range(n), range(n, 2 * n), [True] * n, [0.0] * n,
                        sum(aps[:n]) / n)
    rows = report_json_lines(report).splitlines()[:-1]
    assert rows == [json.dumps({"id": i, "ap": ap, "candidates": k, "unseen": n + k})
                    for k, (i, ap) in enumerate(zip(ids, aps))]
    assert (report == EvalReport(ids, aps[:n], range(n), range(n, 2 * n), [True] * n,
                                 [0.0] * n, sum(aps[:n]) / n)) is True


_VOCABULARY = ("a", "b", "c", "d", "e", "é", "f", "g", "h", "ü")


def _rows(vocabulary, min_len=2):
    """Cascade rows (id, distinct tokens) over `vocabulary`, ids c0, c1, ..."""
    row = st.lists(st.sampled_from(vocabulary), min_size=min_len, max_size=5, unique=True)
    return st.lists(row, min_size=2, max_size=6).map(
        lambda rows: [(f"c{k}", tokens) for k, tokens in enumerate(rows)])


def _datasets(data, rows):
    """The dataset of `rows` as each maker gives it: parsed, constructed,
    from token rows, and a split sharing its parent's whole token table."""
    interned = CascadeDataset.from_token_rows(rows)
    text = "".join(f"{cid}\t{' '.join(tokens)}\n" for cid, tokens in rows)
    # a constructed table may hold tokens no cascade lists
    tokens = interned.tokens + tuple(data.draw(st.lists(st.sampled_from(["x", "yè"]),
                                                        unique=True), label="extra"))
    return {
        "parsed": parse_cascade_file(text),
        "constructed": CascadeDataset(list(interned), tokens),
        "from_token_rows": CascadeDataset.from_token_rows(rows),
        "split": split_dataset(interned, 0.5, data.draw(st.integers(0, 3), label="seed"))[1],
    }


def _models_of(train_set, tmp_dir):
    """A trained model of `train_set`, the same model loaded from its bytes
    and from a file, and a constructed one over the same table."""
    trained, _ = train(train_set, TrainConfig(epochs=1, dimension=2, seed=3))
    path = os.path.join(tmp_dir, "model.iaem")
    save_model_file(trained, path)
    ids = sorted({u for c in train_set for u in c.users})
    constructed = EmbeddingModel(2, "single_space", np.zeros((len(ids), 2)),
                                 {u: row for row, u in enumerate(ids)},
                                 tokens=train_set.tokens)
    return {"trained": trained, "loaded_bytes": load_model(save_model(trained)),
            "loaded_file": load_model_file(path), "constructed": constructed}


@settings(max_examples=40)
@given(data=st.data())
def test_token_index_is_built_only_by_the_first_lookup(data):
    """Every dataset and model keeps its tokens as a tuple and no index:
    `evaluate` builds none on either argument, and `user_id` builds one
    that agrees with a fresh `{token: id}` lookup."""
    datasets = _datasets(data, data.draw(_rows(_VOCABULARY[:7]), label="test rows"))
    train_set = CascadeDataset.from_token_rows(
        data.draw(_rows(_VOCABULARY[3:], min_len=3), label="train rows"))
    with tempfile.TemporaryDirectory() as tmp_dir:
        models = _models_of(train_set, tmp_dir)
    pairs = [(model, test) for model in models.values() for test in datasets.values()]
    for holder in [*models.values(), *datasets.values()]:
        assert type(holder.tokens) is tuple and "_token_ids" not in vars(holder)
    for model, test in pairs:
        evaluate(model, test)
        assert "_token_ids" not in vars(model) and "_token_ids" not in vars(test)
    for holder in [*models.values(), *datasets.values()]:
        fresh = {tok: i for i, tok in enumerate(holder.tokens)}
        assert [holder.user_id(tok) for tok in holder.tokens] == [fresh[tok] for tok in
                                                                   holder.tokens]
        assert holder.user_id("absent") is None and "_token_ids" in vars(holder)


@settings(max_examples=60)
@given(data=st.data())
def test_evaluate_matches_the_loop_across_partly_overlapping_vocabularies(data):
    """A model trained on one split of a corpus scores the other split,
    which shares the parent's whole token table, and a test set whose
    vocabulary only partly overlaps the model's, interned in its own order,
    as the per-cascade loop scores them, bit for bit."""
    parent = CascadeDataset.from_token_rows(
        data.draw(_rows(_VOCABULARY[:7], min_len=3), label="corpus"))
    train_set, test_split = split_dataset(parent, 0.5, data.draw(st.integers(0, 3),
                                                                 label="seed"))
    variant = data.draw(st.sampled_from(VARIANTS), label="variant")
    model, _ = train(train_set, TrainConfig(epochs=2, dimension=2, variant=variant, seed=1))
    assert test_split.tokens is parent.tokens and model.tokens == parent.tokens
    other = CascadeDataset.from_token_rows(data.draw(_rows(_VOCABULARY[4:]), label="other"))
    for test in (test_split, other):
        report = evaluate(model, test)
        assert _hex(_scored(report)) == _hex(_scored_by_loop(model, test))
