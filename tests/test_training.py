import logging
import math

import numpy as np
import pytest

from casembed.combinations import Combination, CombinationTable, build_table
from casembed.data import CascadeDataset
from casembed.model import EmbeddingModel, ModelError, init_model
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import (
    EpochStats,
    TrainConfig,
    _pack_table,
    accumulate_gradients,
    hinge_loss,
    predicted_gap,
    run_epoch,
    train,
    work_meter,
)


def _model(points, source=0):
    """Independent model over explicit 2-D points: index 0 is the source."""
    coords = np.asarray(points, dtype=float)
    space = {i: i for i in range(1, len(points))}
    return EmbeddingModel(coords.shape[1], "independent", coords, {source: 0}, spaces={source: space})


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig(epochs=10)
        assert cfg.dimension == 75
        assert cfg.learning_rate == 0.01
        assert cfg.mu == 2.0
        assert cfg.sampling == "dominant"
        assert cfg.variant == "independent"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"epochs": 1, "dimension": 0},
            {"epochs": 1, "learning_rate": 0.0},
            {"epochs": 1, "mu": 1.0},
            {"epochs": 1, "sampling": "all"},
            {"epochs": 1, "variant": "both"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestGapAndHinge:
    def test_gap_arithmetic(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert predicted_gap(model, 0, 1, 2) == pytest.approx(4.0 - 1.0)

    def test_gap_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            model = _model(rng.normal(size=(3, 2)))
            assert predicted_gap(model, 0, 1, 2) == pytest.approx(
                -predicted_gap(model, 0, 2, 1)
            )

    def test_gap_zero_for_coincident_targets(self):
        model = _model([[0.3, 0.4], [1.0, 1.0], [1.0, 1.0]])
        assert predicted_gap(model, 0, 1, 2) == 0.0

    def test_gap_requires_allocation(self):
        model = _model([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ModelError):
            predicted_gap(model, 0, 1, 9)

    def test_hinge_values(self):
        assert hinge_loss(1.03, 3.0) == 0.0
        assert hinge_loss(1.03, 0.0) == pytest.approx(1.03)
        assert hinge_loss(1.03, 1.03) == 0.0  # satisfied exactly at the boundary


class TestGradients:
    def test_worked_example(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        combo = Combination(0, 1, 2, 1, 100.0)
        g_x, g_i, g_j = accumulate_gradients(model, combo)
        assert np.allclose(g_x, [-2.0, 2.0])
        assert np.allclose(g_i, [2.0, 0.0])
        assert np.allclose(g_j, [0.0, -2.0])

    def test_inactive_returns_none(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])  # gap 24
        assert accumulate_gradients(model, Combination(0, 1, 2, 1, 1.0)) is None
        # boundary: gap == margin counts as satisfied
        boundary = Combination(0, 1, 2, 1, 24.0)
        assert accumulate_gradients(model, boundary) is None

    def test_coincident_points_active_with_zero_gradients(self):
        model = _model([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        grads = accumulate_gradients(model, Combination(0, 1, 2, 1, 1.0))
        assert grads is not None
        for g in grads:
            assert np.allclose(g, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(71)
        step = 1e-5
        for _ in range(60):
            dim = int(rng.choice([1, 2, 8]))
            points = rng.uniform(-1.0, 1.0, size=(3, dim))
            model = _model(points)
            gap = predicted_gap(model, 0, 1, 2)
            combo = Combination(0, 1, 2, 1, abs(gap) + float(rng.uniform(0.1, 1.0)))
            analytic = np.concatenate(accumulate_gradients(model, combo))

            def term(flat):
                m = _model(flat.reshape(3, dim))
                return hinge_loss(combo.avg_margin, predicted_gap(m, 0, 1, 2))

            flat = points.ravel().copy()
            numeric = np.empty_like(flat)
            for k in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[k] += step
                down[k] -= step
                numeric[k] = (term(up) - term(down)) / (2 * step)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestRunEpoch:
    def test_single_combo_step(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        table = CombinationTable([Combination(0, 1, 2, 1, 100.0)], mode="full")
        stats = run_epoch(model, table, 0.1)
        assert stats.active_count == 1
        assert stats.total_loss == pytest.approx(100.0)  # gap is 0 at init
        np.testing.assert_allclose(model.coords[0], [0.2, -0.2])
        np.testing.assert_allclose(model.coords[1], [0.8, 0.0])
        np.testing.assert_allclose(model.coords[2], [0.0, 1.2])

    def test_no_active_combos_is_identity(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        before = model.coords.copy()
        table = CombinationTable([Combination(0, 1, 2, 1, 0.5)], mode="full")
        stats = run_epoch(model, table, 0.1)
        assert stats.active_count == 0
        assert stats.total_loss == 0.0
        np.testing.assert_array_equal(model.coords, before)

    @pytest.mark.parametrize("missing", [(7, 1, 2), (0, 1, 9), (0, 9, 2)])
    def test_unallocated_coordinates_name_the_combination(self, missing):
        # the source, the later user or the earlier user lacks a coordinate
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        before = model.coords.copy()
        table = CombinationTable(
            [Combination(0, 1, 2, 1, 1.0), Combination(*missing, 1, 1.0)], mode="full"
        )
        with pytest.raises(ModelError, match=rf"combination \({', '.join(map(str, missing))}\)"):
            run_epoch(model, table, 0.1)
        np.testing.assert_array_equal(model.coords, before)

    def test_per_coordinate_touch_averaging(self):
        # two active combos share the source coordinate; target users are
        # touched once each, the source twice
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]])
        table = CombinationTable(
            [Combination(0, 1, 2, 1, 50.0), Combination(0, 3, 4, 1, 50.0)],
            mode="full",
        )
        eta = 0.1
        x = model.coords[0].copy()
        y = {i: model.coords[i].copy() for i in range(1, 5)}
        g_x = 2 * (y[2] - y[1]) + 2 * (y[4] - y[3])
        expected_x = x - eta * g_x / 2
        expected = {
            1: y[1] - eta * 2 * (y[1] - x),
            2: y[2] - eta * 2 * (x - y[2]),
            3: y[3] - eta * 2 * (y[3] - x),
            4: y[4] - eta * 2 * (x - y[4]),
        }
        run_epoch(model, table, eta)
        np.testing.assert_allclose(model.coords[0], expected_x)
        for i, want in expected.items():
            np.testing.assert_allclose(model.coords[i], want)

    def test_loss_decomposes_as_sum_of_hinges(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            world = generate_world(2, 6, 2, seed=int(rng.integers(1 << 30)))
            dataset = emit_cascades(world, 10, 4, seed=int(rng.integers(1 << 30)))
            table = build_table(dataset, mode="full")
            cfg = TrainConfig(epochs=1, dimension=3, seed=7)
            model = init_model(table, cfg, np.random.default_rng(cfg.seed))
            expected = math.fsum(
                hinge_loss(c.avg_margin, predicted_gap(model, *c.key)) for c in table
            )
            stats = run_epoch(model, table, 1e-6)
            assert stats.total_loss == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance_per_source(self):
        rng = np.random.default_rng(53)
        world = generate_world(1, 8, 3, seed=9)
        dataset = emit_cascades(world, 12, 5, seed=10)
        table = build_table(dataset, mode="dominant")
        cfg = TrainConfig(epochs=1, dimension=3, seed=3)
        model = init_model(table, cfg, np.random.default_rng(cfg.seed))
        shifted = init_model(table, cfg, np.random.default_rng(cfg.seed))
        shift = rng.normal(size=3)
        shifted.coords += shift  # every point of the single source's spaces
        for combo in table:
            gap = predicted_gap(model, *combo.key)
            gap_shifted = predicted_gap(shifted, *combo.key)
            assert gap_shifted == pytest.approx(gap, rel=1e-9, abs=1e-9)
            a = accumulate_gradients(model, combo)
            b = accumulate_gradients(shifted, combo)
            assert (a is None) == (b is None)
            if a is not None:
                for ga, gb in zip(a, b):
                    np.testing.assert_allclose(ga, gb, atol=1e-9)

    def test_work_meter_linear_in_table_and_dimension(self):
        world = generate_world(2, 10, 2, seed=21)
        dataset = emit_cascades(world, 30, 6, seed=22)
        table = build_table(dataset, mode="full")
        half = CombinationTable(list(table)[: len(table) // 2], mode="full", tokens=table.tokens)

        def work(tbl, dim):
            cfg = TrainConfig(epochs=1, dimension=dim, seed=0)
            model = init_model(tbl, cfg, np.random.default_rng(0))
            work_meter.reset()
            run_epoch(model, tbl, 0.01)
            return work_meter.entry_dims

        def slots(tbl):
            pairs = {(c.source, c.earlier) for c in tbl} | {(c.source, c.later) for c in tbl}
            return len(pairs)

        # one unit per combination plus one per slot coordinate: N + S*D
        assert slots(table) < len(table)
        assert work(table, 2) == len(table) + slots(table) * 2
        assert work(table, 4) == len(table) + slots(table) * 4
        assert work(half, 2) == len(half) + slots(half) * 2

    @pytest.mark.parametrize("variant", ["independent", "shared_susceptibility", "single_space"])
    def test_slots_are_the_distinct_source_user_pairs(self, variant):
        world = generate_world(3, 8, 2, seed=61)
        table = build_table(emit_cascades(world, 20, 5, seed=62), mode="full")
        cfg = TrainConfig(epochs=1, dimension=2, variant=variant)
        model = init_model(table, cfg, np.random.default_rng(0))
        pairs = {(c.source, c.earlier) for c in table} | {(c.source, c.later) for c in table}
        assert len(_pack_table(model, table).slot_x) == len(pairs)


def _random_table(rng, users, size):
    """Distinct random triples over a few users, so sources recur as the
    earlier or later user of other sources' combinations."""
    entries = {}
    while len(entries) < size:
        source, earlier, later = (int(u) for u in rng.choice(users, size=3, replace=False))
        margin = float(rng.uniform(0.001, 0.02))
        entries.setdefault((source, earlier, later), Combination(source, earlier, later, 1, margin))
    return CombinationTable(entries.values(), mode="full")


def _reference_epoch(model, table, learning_rate):
    """Scalar reference epoch: accumulate_gradients per combination, then
    move every touched row by the mean of the gradients that touched it."""
    accum = np.zeros_like(model.coords)
    touched = np.zeros(len(model.coords))
    loss, active = 0.0, 0
    for combo in table:
        loss += hinge_loss(combo.avg_margin, predicted_gap(model, *combo.key))
        grads = accumulate_gradients(model, combo)
        if grads is None:
            continue
        active += 1
        space = model.space_of(combo.source)
        rows = (model._influence[combo.source], space[combo.earlier], space[combo.later])
        for row, grad in zip(rows, grads):
            accum[row] += grad
            touched[row] += 1
    mask = touched > 0
    model.coords[mask] -= learning_rate * accum[mask] / touched[mask, None]
    return loss, active


class TestReferenceEquivalence:
    """The slot-space epoch against the per-combination scalar reference."""

    RTOL, ATOL = 1e-12, 1e-15

    @pytest.mark.parametrize("variant", ["independent", "shared_susceptibility", "single_space"])
    def test_epochs_match_reference(self, variant):
        rng = np.random.default_rng(97)
        saw_partial = False
        for trial in range(8):
            table = _random_table(rng, users=7, size=30)
            cfg = TrainConfig(epochs=1, dimension=3, variant=variant, seed=trial)
            model = init_model(table, cfg, np.random.default_rng(trial))
            reference = init_model(table, cfg, np.random.default_rng(trial))
            for epoch in range(6):
                stats = run_epoch(model, table, 0.2, epoch)
                loss, active = _reference_epoch(reference, table, 0.2)
                assert stats.active_count == active
                assert stats.total_loss == pytest.approx(loss, rel=self.RTOL, abs=self.ATOL)
                np.testing.assert_allclose(
                    model.coords, reference.coords, rtol=self.RTOL, atol=self.ATOL
                )
                saw_partial |= 0 < active < len(table)
        assert saw_partial  # the runs exercise both active and satisfied combinations

    def test_single_space_aliases_influence_and_susceptibility_rows(self):
        # user 1 is source 0's earlier user and the source of another
        # combination, so one row is an influence and a susceptibility row
        table = CombinationTable(
            [
                Combination(0, 1, 2, 1, 0.5),
                Combination(1, 2, 3, 1, 0.5),
                Combination(2, 0, 1, 1, 0.5),
                Combination(0, 3, 1, 1, 0.5),
            ],
            mode="full",
        )
        cfg = TrainConfig(epochs=1, dimension=2, variant="single_space", seed=4)
        model = init_model(table, cfg, np.random.default_rng(4))
        reference = init_model(table, cfg, np.random.default_rng(4))
        packed = _pack_table(model, table)
        assert set(packed.slot_x.tolist()) & set(packed.slot_y.tolist())
        for epoch in range(5):
            stats = run_epoch(model, table, 0.3, epoch)
            loss, active = _reference_epoch(reference, table, 0.3)
            assert stats.active_count == active > 0
            assert stats.total_loss == pytest.approx(loss, rel=self.RTOL, abs=self.ATOL)
            np.testing.assert_allclose(
                model.coords, reference.coords, rtol=self.RTOL, atol=self.ATOL
            )


class TestDivergence:
    def test_large_learning_rate_raises_naming_the_epoch(self):
        # the CLI's `synth --sources 3 --users-per-source 10 --seed 0` corpus;
        # at lr 50 the loss explodes until every hinge reads as satisfied
        world = generate_world(3, 10, 4, seed=0)
        dataset = emit_cascades(world, 100, 8, seed=1)
        with pytest.raises(ValueError, match=r"diverged at epoch \d+"):
            train(dataset, TrainConfig(epochs=200, learning_rate=50.0))

    def test_non_finite_coordinates_raise(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model.coords[2, 0] = np.nan
        table = CombinationTable([Combination(0, 1, 2, 1, 1.0)], mode="full")
        with pytest.raises(ValueError, match="diverged at epoch 3"):
            run_epoch(model, table, 0.1, epoch=3)

    def test_blow_up_in_the_last_update_raises(self):
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        table = CombinationTable([Combination(0, 1, 2, 1, 1.0)], mode="full")
        with pytest.raises(ValueError, match="diverged at epoch 7: .* after the update"):
            run_epoch(model, table, 1e300, epoch=7)


class TestTrain:
    def _dataset(self):
        world = generate_world(2, 8, 2, seed=31)
        return emit_cascades(world, 25, 5, seed=32)

    def test_zero_epochs_returns_init(self):
        dataset = self._dataset()
        cfg = TrainConfig(epochs=0, dimension=4, seed=13)
        model, history = train(dataset, cfg)
        assert history == []
        table = build_table(dataset, mu=cfg.mu, mode=cfg.sampling)
        reference = init_model(table, cfg, np.random.default_rng(cfg.seed))
        assert model == reference

    def test_deterministic(self):
        dataset = self._dataset()
        cfg = TrainConfig(epochs=40, dimension=4, seed=5)
        first, hist_a = train(dataset, cfg)
        second, hist_b = train(dataset, cfg)
        assert first == second
        assert hist_a == hist_b

    def test_loss_zero_iff_no_active(self):
        dataset = self._dataset()
        _, history = train(dataset, TrainConfig(epochs=400, dimension=4, seed=5))
        for stats in history:
            assert (stats.total_loss == 0.0) == (stats.active_count == 0)

    def test_early_stop_at_fixed_point(self):
        dataset = self._dataset()
        model, history = train(dataset, TrainConfig(epochs=5000, dimension=6, seed=5))
        assert len(history) < 5000
        assert history[-1].active_count == 0
        # a further epoch is the identity
        table = build_table(dataset, mode="dominant")
        before = model.coords.copy()
        stats = run_epoch(model, table, 0.01)
        assert stats.active_count == 0
        np.testing.assert_array_equal(model.coords, before)

    def test_empty_table_warns_and_runs_zero_epochs(self, caplog):
        dataset = CascadeDataset.from_token_rows([("c0", ["a", "b"])])  # no pairs
        with caplog.at_level(logging.WARNING, logger="casembed.training"):
            model, history = train(dataset, TrainConfig(epochs=10, dimension=2))
        assert history == []
        assert model.num_points == 0
        assert any("no training combinations" in r.message for r in caplog.records)

    def test_small_planted_recovery(self):
        # 10-user planted instance in two dimensions: most of the initial
        # hinge mass must be gone after 200 epochs
        world = generate_world(1, 10, 2, seed=3)
        dataset = emit_cascades(world, 60, 6, seed=4)
        _, history = train(dataset, TrainConfig(epochs=200, dimension=2, seed=5))
        assert history[0].total_loss > 0
        assert history[-1].total_loss < 0.10 * history[0].total_loss

    @pytest.mark.parametrize("variant", ["shared_susceptibility", "single_space"])
    def test_variants_train_and_descend(self, variant):
        dataset = self._dataset()
        cfg = TrainConfig(epochs=150, dimension=4, seed=5, variant=variant)
        _, history = train(dataset, cfg)
        assert history[-1].total_loss < history[0].total_loss
