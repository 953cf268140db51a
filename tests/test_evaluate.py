import json
import sys

import numpy as np
import pytest

from casembed.data import Cascade, CascadeDataset
from casembed.evaluate import (
    RankedPrediction,
    average_precision,
    evaluate,
    rank_for_source,
    report_json_lines,
    report_tsv,
)
from casembed.model import EmbeddingModel, ModelError
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
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        model = EmbeddingModel(
            2, "independent", coords, {0: 0}, spaces={0: {0: 0, 1: 1}}
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
        for cascade, scored in zip(test_set, report.per_cascade):
            users = tuple(model.user_id(test_set.token(u)) for u in cascade.users)
            if users[0] is None:
                assert not scored.source_known
                continue
            assert None not in users
            prediction = rank_for_source(model, users[0])
            assert scored.ap == average_precision(prediction, Cascade("t", users))
            assert scored.candidate_count == len(prediction.ranking)

    def test_threads_do_not_change_results(self):
        model, test_set = self._pipeline()
        serial = evaluate(model, test_set, threads=1)
        pooled = evaluate(model, test_set, threads=4)
        assert serial == pooled

    def test_random_model_map_near_membership_baseline(self):
        # uniformly drawn cascade members carry no ranking signal, so any
        # fixed ranking lands at the Monte-Carlo membership baseline
        world = generate_world(4, 20, 3, seed=77)
        train_set = emit_cascades(world, 80, 8, seed=78)
        test_set = emit_cascades(world, 50, 8, seed=79)
        model, _ = train(train_set, TrainConfig(epochs=0, dimension=6, seed=9))
        report = evaluate(model, test_set)
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(20000):
            positions = np.sort(rng.choice(20, size=8, replace=False)) + 1
            samples.append(np.mean([(i + 1) / p for i, p in enumerate(positions)]))
        baseline = float(np.mean(samples))
        assert report.map == pytest.approx(baseline, abs=0.05)


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
