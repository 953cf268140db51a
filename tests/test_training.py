import dataclasses
import itertools
import math
import os
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casembed import training
from casembed.combinations import ENTRY, Combination, CombinationTable, build_table
from casembed.data import CascadeDataset, load_cascade_file, save_cascade_file
from casembed.model import VARIANTS, EmbeddingModel, ModelError, init_model, save_model
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import (
    EpochStats,
    TrainConfig,
    _PackedTable,
    _pack_table,
    _run_packed_epoch,
    _slot_distances,
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
    def test_fields_cannot_change_after_validation(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.learning_rate = float("nan")
        assert cfg.learning_rate == 0.01

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
            {"epochs": 1.5},
            {"epochs": 2.0},  # whole, but not an integer: range() rejects it
            {"epochs": "3"},
            {"epochs": 1, "dimension": 2.0},
            {"epochs": 1, "dimension": 2.5},
            {"epochs": 1, "seed": -1},
            {"epochs": 1, "seed": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field", ["learning_rate", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(epochs=1, **{field: value})


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
    @pytest.mark.parametrize("learning_rate", [0.0, math.nan, math.inf])
    def test_rejects_a_bad_learning_rate_without_moving(self, learning_rate):
        model = _model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        before = model.coords.copy()
        table = CombinationTable([Combination(0, 1, 2, 1, 100.0)], mode="full")
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            run_epoch(model, table, learning_rate)
        np.testing.assert_array_equal(model.coords, before)

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

    @pytest.mark.parametrize("variant, dimension", [
        *(pytest.param(variant, 16, id=variant) for variant in VARIANTS),
        *(pytest.param(variant, 64, id=f"{variant}-64") for variant in VARIANTS),
    ])
    def test_epoch_working_set_is_linear_in_table_and_slots(self, traced_peak, variant, dimension):
        # One epoch may hold at its peak 2·(N + 2·S·D) words of 8 bytes for
        # N combinations over S slots in D dimensions, and no more than
        # 3·N + S·D + P·D words for P model points. At D = 64 it also holds
        # no more than 3·N + 4·S + 2·P words: nothing it builds grows with
        # the dimension, neither S·D slot differences nor P·D coordinates.
        world = generate_world(6, 40, 4, seed=5)
        table = build_table(emit_cascades(world, 40, 16, seed=6, noise=0.3), mode="full")
        cfg = TrainConfig(epochs=1, dimension=dimension, variant=variant)
        model = init_model(table, cfg, np.random.default_rng(0))
        packed = _pack_table(model, table)
        stats, peak = traced_peak(_run_packed_epoch, model, packed, 0.01, 0)
        assert stats.active_count > 0
        words = len(table) + 2 * len(packed.slot_x) * cfg.dimension
        assert peak <= 2 * 8 * words, f"{peak / 8 / words:.2f} words per bound word"
        words = 3 * len(table) + (len(packed.slot_x) + len(model.coords)) * cfg.dimension
        assert peak <= 8 * words, f"{peak / 8 / words:.2f} words per bound word"
        if dimension == 64:
            slots, points = len(packed.slot_x), len(model.coords)
            words = 3 * len(table) + 4 * slots + 2 * points
            assert peak <= 8 * words, f"{peak / 8 / words:.2f} words per bound word"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_packed_table_does_not_grow_with_dimension(self, variant):
        world = generate_world(6, 40, 4, seed=5)
        table = build_table(emit_cascades(world, 40, 16, seed=6, noise=0.3), mode="full")

        def packed_bytes(dimension):
            cfg = TrainConfig(epochs=1, dimension=dimension, variant=variant)
            packed = _pack_table(init_model(table, cfg, np.random.default_rng(0)), table)
            arrays = [getattr(packed, name) for name in _PackedTable.__dataclass_fields__]
            return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

        assert packed_bytes(2) == packed_bytes(64)

    @staticmethod
    def _slot_distances_match(coords, slots, rng):
        # the slots are gathered, subtracted and reduced in chunks of ⌈S/D⌉;
        # every chunking must give the one-gather result bit for bit
        slot_x, slot_y = rng.integers(0, len(coords), size=(2, slots))
        empty = np.empty(0, dtype=np.int64)
        packed = _PackedTable(empty, empty, np.empty(0), np.concatenate([slot_x, slot_y]), np.inf)
        d2 = _slot_distances(coords, packed)
        expected = np.array(coords)[slot_x] - np.array(coords)[slot_y]
        assert d2.shape == (slots,)
        assert np.array_equal(d2, np.einsum("ij,ij->i", expected, expected))

    @pytest.mark.parametrize("slots, dimension", [
        pytest.param(0, 3, id="no-slots"),
        pytest.param(5, 64, id="fewer-slots-than-dimensions"),
        pytest.param(37, 3, id="more-slots-than-dimensions"),
        pytest.param(11, 1, id="one-dimension"),
        pytest.param(200, 64, id="dimension-64"),
        pytest.param(997, 75, id="dimension-75"),
    ])
    def test_slot_distances_match_one_gather(self, slots, dimension):
        rng = np.random.default_rng(slots + dimension)
        self._slot_distances_match(rng.normal(size=(23, dimension)), slots, rng)

    def test_slot_distances_match_one_gather_for_every_chunking(self):
        rng = np.random.default_rng(9)
        for dimension in range(1, 12):
            coords = rng.normal(size=(17, dimension))
            for slots in range(4 * dimension + 3):
                self._slot_distances_match(coords, slots, rng)

    @pytest.mark.parametrize("slots, dimension", [(37, 3), (200, 64), (997, 75)])
    def test_slot_distances_match_one_gather_from_a_misaligned_buffer(self, slots, dimension):
        rng = np.random.default_rng(slots)
        values = rng.normal(size=(23, dimension))
        coords = np.frombuffer(bytearray(values.nbytes + 1), offset=1, count=values.size)
        coords = coords.reshape(values.shape)
        coords[...] = values
        assert not coords.flags.aligned
        self._slot_distances_match(coords, slots, rng)

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


def _flat_scatter_epoch(coords, packed, learning_rate):
    """Coordinates after one epoch that scatters all dimensions at once: one
    bincount over the flat coordinate index of every (row, dimension) entry
    of `packed.rows`, with a (2S, D) weights buffer."""
    dim = coords.shape[1]
    diff = coords[packed.slot_x] - coords[packed.slot_y]
    d2 = np.einsum("ij,ij->i", diff, diff)
    gaps = d2[packed.later_slot] - d2[packed.earlier_slot]
    active = np.flatnonzero(gaps < packed.margins)
    n_e = np.bincount(packed.earlier_slot[active], minlength=len(d2))
    n_l = np.bincount(packed.later_slot[active], minlength=len(d2))
    grads = (2.0 * (n_e - n_l))[:, None] * diff
    weights = np.concatenate([grads, -grads])
    index = (packed.rows[:, None] * dim + np.arange(dim)).ravel()
    accum = np.bincount(index, weights=weights.ravel(), minlength=coords.size)
    accum = accum.reshape(coords.shape)
    touched = np.bincount(
        packed.rows, weights=np.concatenate([n_e, n_e + n_l]), minlength=len(coords)
    )
    accum *= learning_rate
    accum /= np.maximum(touched, 1.0)[:, None]
    return coords - accum, len(active)


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

    @pytest.mark.parametrize("dimension", [1, 3, 16])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epochs_match_the_flat_scatter_bit_for_bit(self, variant, dimension):
        rng = np.random.default_rng(41)
        saw_partial = False
        for trial in range(4):
            table = _random_table(rng, users=7, size=30)
            cfg = TrainConfig(epochs=1, dimension=dimension, variant=variant, seed=trial)
            model = init_model(table, cfg, np.random.default_rng(trial))
            packed = _pack_table(model, table)
            for epoch in range(6):
                expected, active = _flat_scatter_epoch(model.coords, packed, 0.2)
                stats = _run_packed_epoch(model, packed, 0.2, epoch)
                assert stats.active_count == active
                assert np.array_equal(model.coords, expected)
                assert model.coords.tobytes() == expected.tobytes()  # signed zeros too
                saw_partial |= 0 < active < len(table)
        assert saw_partial

    @pytest.mark.parametrize("variant", ["independent", "shared_susceptibility", "single_space"])
    def test_pack_resolves_rows_like_the_dict_views(self, variant):
        rng = np.random.default_rng(5)
        table = _random_table(rng, users=9, size=40)
        cfg = TrainConfig(epochs=0, dimension=2, variant=variant)
        model = init_model(table, cfg, rng)
        packed = _pack_table(model, table)
        for n, combo in enumerate(table):
            x, space = model._influence[combo.source], model.space_of(combo.source)
            for slot, user in ((packed.earlier_slot[n], combo.earlier),
                               (packed.later_slot[n], combo.later)):
                assert (packed.slot_x[slot], packed.slot_y[slot]) == (x, space[user])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_table_packs_empty_and_moves_nothing(self, variant):
        rng = np.random.default_rng(6)
        model = init_model(_random_table(rng, users=6, size=10),
                           TrainConfig(epochs=1, dimension=3, variant=variant), rng)
        before = model.coords.copy()
        empty = CombinationTable([], mode="full")
        packed = _pack_table(model, empty)
        for name in _PackedTable.__dataclass_fields__:
            if name != "distance_limit":
                assert len(getattr(packed, name)) == 0, name
        assert run_epoch(model, empty, 0.1) == EpochStats(0, 0.0, 0)
        np.testing.assert_array_equal(model.coords, before, strict=True)

    def test_source_without_a_space_is_unallocated(self):
        coords = np.zeros((4, 2))
        model = EmbeddingModel(2, "independent", coords, {0: 0, 3: 3}, spaces={0: {1: 1, 2: 2}})
        table = CombinationTable([Combination(0, 1, 2, 1, 1.0), Combination(3, 1, 2, 1, 1.0)],
                                 mode="full")
        with pytest.raises(ModelError, match=r"combination \(3, 1, 2\)"):
            _pack_table(model, table)

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
        assert history.saved is None and history.stopped == "epoch_limit"
        table = build_table(dataset, mu=cfg.mu, mode=cfg.sampling)
        reference = init_model(table, cfg, np.random.default_rng(cfg.seed))
        assert model == reference

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_saved_stats_are_the_next_epochs(self, variant):
        # at its epoch limit a fit saves the model one update past its last
        # stats; `saved` is what one more epoch would have reported
        dataset = self._dataset()
        cfg = TrainConfig(epochs=7, dimension=4, seed=5, variant=variant)
        _, history = train(dataset, cfg)
        _, longer = train(dataset, dataclasses.replace(cfg, epochs=8))
        assert history.stopped == "epoch_limit" and history[-1].active_count > 0
        assert history.saved == longer[-1] == EpochStats(7, longer[-1].total_loss,
                                                         longer[-1].active_count)
        assert history.saved != history[-1]

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
        assert history.stopped == "no_active"
        assert history.saved == EpochStats(len(history), 0.0, 0)
        # a further epoch is the identity
        table = build_table(dataset, mode="dominant")
        before = model.coords.copy()
        stats = run_epoch(model, table, 0.01)
        assert stats.active_count == 0
        np.testing.assert_array_equal(model.coords, before)

    def test_table_is_released_before_the_first_epoch(self, monkeypatch):
        # the epochs read only the packed table, so `train` must not keep the
        # combination table's other columns alive through them
        built, epochs = [], []
        build, run = training.build_table, training._run_packed_epoch

        def build_and_watch(*args, **kwargs):
            table = build(*args, **kwargs)
            built.append(weakref.ref(table))
            return table

        def run_after_release(*args):
            assert built[0]() is None, "the combination table is alive in an epoch"
            epochs.append(args[-1])
            return run(*args)

        monkeypatch.setattr(training, "build_table", build_and_watch)
        monkeypatch.setattr(training, "_run_packed_epoch", run_after_release)
        _, history = train(self._dataset(), TrainConfig(epochs=3, dimension=4, seed=5))
        assert len(built) == 1
        assert epochs == [0, 1, 2] == [stats.epoch for stats in history]

    def test_corpus_is_released_before_the_first_epoch(self, monkeypatch, tmp_path):
        # a corpus handed over without a name holding it is freed once its
        # table is built: nothing of it lives through init, pack or epochs
        path = tmp_path / "train.cascades"
        save_cascade_file(self._dataset(), path)
        corpora, alive = [], []
        build, run = training.build_table, training._run_packed_epoch

        def build_and_watch(dataset, **kwargs):
            corpora.append(weakref.ref(dataset))
            return build(dataset, **kwargs)

        def run_and_look(*args):
            alive.append(corpora[0]() is not None)
            return run(*args)

        monkeypatch.setattr(training, "build_table", build_and_watch)
        monkeypatch.setattr(training, "_run_packed_epoch", run_and_look)
        _, history = train(load_cascade_file(path), TrainConfig(epochs=2, dimension=3, seed=5))
        assert alive == [False, False] and len(history) == 2

    def test_history_counts_the_triples_and_records_the_stages(self):
        dataset = self._dataset()
        _, history = train(dataset, TrainConfig(epochs=2, dimension=3, seed=5))
        assert history.triples == sum(c.num_infected * (c.num_infected - 1) // 2
                                      for c in dataset)
        assert history.triples >= history.combinations > 0
        assert [stage["stage"] for stage in history.stages] == [
            "build", "init", "pack", "epochs", "final_check"]
        assert all(stage["seconds"] >= 0 and stage["maxrss_mb"] > 0
                   for stage in history.stages)
        # the resident size then, never above the peak (the peak is read first)
        if os.path.exists("/proc/self/statm"):
            assert all(0 < stage["rss_mb"] < stage["maxrss_mb"] + 1
                       for stage in history.stages)

    def test_stage_resident_size_is_none_without_proc(self, monkeypatch):
        def missing(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(training, "open", missing, raising=False)
        stages = training.Stages()
        assert stages.lap("only", "result") == "result"
        assert stages[0]["rss_mb"] is None and stages[0]["maxrss_mb"] > 0

    def test_token_index_is_built_on_the_first_lookup(self):
        dataset = self._dataset()
        model, _ = train(dataset, TrainConfig(epochs=1, dimension=3, seed=5))
        assert model.tokens and "_token_ids" not in vars(model)
        save_model(model)
        assert "_token_ids" not in vars(model)  # saving looks no token up
        assert [model.user_id(token) for token in model.tokens] == list(range(len(model.tokens)))
        assert "_token_ids" in vars(model) and model.user_id("no such token") is None

    @pytest.mark.parametrize("rows", [
        [("c0", ["a", "b"])],  # no pairs
        [("c0", ["a", "b", "c"]), ("c1", ["a", "c", "b"])],  # each pair in both orders
    ], ids=["short-cascades", "tied-pairs"])
    def test_empty_table_raises_before_init(self, monkeypatch, rows):
        def refuse(*args):
            raise AssertionError("a model was made for an empty table")

        monkeypatch.setattr(training, "init_model", refuse)
        dataset = CascadeDataset.from_token_rows(rows)
        with pytest.raises(ValueError, match="no training combinations: every cascade has"
                           " fewer than two infected users, or dominant sampling dropped"):
            train(dataset, TrainConfig(epochs=10, dimension=2))

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


def _same(a, b, name):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    else:
        assert a == b, name


# Cascades over a few users, so sources recur as other cascades' infected
# users and (source, user) pairs recur across cascades.
_cascade_rows = st.lists(
    st.lists(st.integers(0, 7), min_size=2, max_size=6, unique=True), min_size=1, max_size=12
)


@pytest.mark.parametrize("mode", ["dominant", "full"])
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=40)
@given(rows=_cascade_rows)
@example(rows=[[0, 1, 2]])  # one combination, reading two pairs
def test_build_table_pair_numbering_matches_entries(variant, mode, rows):
    """A table from build_table and the same table rebuilt from its entries,
    which numbers its pairs itself, allocate and pack alike."""
    dataset = CascadeDataset.from_token_rows(
        (f"c{i}", [f"t{u}" for u in row]) for i, row in enumerate(rows)
    )
    built = build_table(dataset, mode=mode)
    rebuilt = CombinationTable(list(built), mode=mode, tokens=built.tokens)
    for name in ("pair_source", "pair_user", "earlier_pair", "later_pair"):
        _same(getattr(built, name), getattr(rebuilt, name), name)
    cfg = TrainConfig(epochs=1, dimension=3, variant=variant)
    models = [init_model(t, cfg, np.random.default_rng(4)) for t in (built, rebuilt)]
    assert save_model(models[0]) == save_model(models[1])
    if not len(built):
        return
    packed = [_pack_table(model, t) for model, t in zip(models, (built, rebuilt))]
    for name in _PackedTable.__dataclass_fields__:
        _same(*(getattr(p, name) for p in packed), name)


_EDGE = 2**63 - 1


@st.composite
def _relabelling(draw, count):
    """`count` strictly increasing int64 ids from -(2**63 - 1) to 2**63 - 1,
    both ends included once there are two ids."""
    inner = st.integers(-_EDGE + 1, _EDGE - 1) | st.integers(-3, 3)
    ids = draw(st.sets(inner, min_size=max(count - 2, 0), max_size=max(count - 2, 0)))
    ends = [-_EDGE, _EDGE][: min(count, 2)]
    return np.array(sorted(ids | set(ends)), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(rows=_cascade_rows, mode=st.sampled_from(["dominant", "full"]), data=st.data())
def test_setup_is_invariant_under_order_preserving_relabelling(rows, mode, data):
    """Ids that keep their order give the same pair numbering, duplicate
    rejection, allocation and slots, whatever int64 values they take."""
    dataset = CascadeDataset.from_token_rows(
        (f"c{i}", [f"t{u}" for u in row]) for i, row in enumerate(rows)
    )
    table = build_table(dataset, mode=mode)
    rows = np.zeros(len(table), dtype=ENTRY)
    for name in ENTRY.names:
        rows[name] = getattr(table, name)
    ids = np.unique(np.concatenate([table.source, table.earlier, table.later]))
    new = data.draw(_relabelling(len(ids)))

    def relabel(column):
        return new[np.searchsorted(ids, column)]

    moved_rows = rows.copy()
    for name in ("source", "earlier", "later"):
        moved_rows[name] = relabel(rows[name])
    moved = CombinationTable(moved_rows, mode)
    _same(moved.pair_source, relabel(table.pair_source), "pair_source")
    _same(moved.pair_user, relabel(table.pair_user), "pair_user")
    _same(moved.earlier_pair, table.earlier_pair, "earlier_pair")
    _same(moved.later_pair, table.later_pair, "later_pair")
    if not len(table):
        return
    repeats = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=4))
    named = min(rows[["source", "earlier", "later"]][repeats].tolist())  # the smallest repeat
    for entries, key in ((rows, named), (moved_rows, tuple(relabel(np.array(named)).tolist()))):
        with pytest.raises(ValueError, match=re.escape(f"combination {key} occurs twice")):
            CombinationTable(np.concatenate([entries, entries[repeats]]), mode)
    for variant in VARIANTS:
        cfg = TrainConfig(epochs=1, dimension=2, variant=variant)
        model, twin = (init_model(t, cfg, np.random.default_rng(3)) for t in (table, moved))
        _same(twin.coords, model.coords, "coords")
        sources = np.array(list(model._spaces), dtype=np.int64)
        assert list(twin._spaces) == relabel(sources).tolist()
        assert len(twin._blocks) == len(model._blocks)
        for block, moved_block in zip(model._blocks, twin._blocks):
            _same(moved_block.ids, relabel(block.ids), "ids")
            _same(moved_block.rows, block.rows, "rows")
        packed, moved_packed = _pack_table(model, table), _pack_table(twin, moved)
        for name in _PackedTable.__dataclass_fields__:
            _same(getattr(moved_packed, name), getattr(packed, name), name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_setup_sorts_only_pairs_and_sources(variant, monkeypatch):
    """init_model and _pack_table on a build_table table sort nothing longer
    than its distinct pairs plus its sources, however many combinations
    read them."""
    world = generate_world(3, 20, 2, seed=31)
    table = build_table(emit_cascades(world, 40, 8, seed=32), mode="full")
    bound = len(table.pair_source) + len(np.unique(table.source))
    assert len(table) > 4 * bound
    lengths = []
    for name in ("unique", "argsort", "sort", "lexsort"):
        def recording(a, *args, _sort=getattr(np, name), _keys=name == "lexsort", **kwargs):
            lengths.append(np.shape(a)[-1] if _keys else np.size(a))  # lexsort: key length
            return _sort(a, *args, **kwargs)

        monkeypatch.setattr(np, name, recording)
    model = init_model(table, TrainConfig(epochs=1, dimension=2, variant=variant),
                       np.random.default_rng(0))
    _pack_table(model, table)
    assert lengths and max(lengths) <= bound


# ids spanning int64, so that a join packing ids into a key would overflow
_IDS = st.sampled_from([-(2**63), -5, 0, 1, 2, 3, 7, 2**40, 2**63 - 1])


@st.composite
def _lookup_case(draw, variant):
    """A model of `variant` over a few of `_IDS` and (source, user) queries
    over the same ids: some sources lack an influence point, independent
    ones may own no space or own one without an influence point, users may
    be absent, and in single_space a source is a member of every space."""
    blocks = st.lists(_IDS, max_size=5, unique=True)
    influence, spaces, shared = draw(blocks), None, None
    if variant == "independent":
        spaces = {source: draw(blocks) for source in draw(blocks)}
    elif variant == "shared_susceptibility":
        shared = draw(blocks)
    rows = itertools.count()

    def block(users):
        return {user: next(rows) for user in users}

    influence = block(influence)
    if spaces is not None:
        spaces = {source: block(users) for source, users in spaces.items()}
    if shared is not None:
        shared = block(shared)
    points = next(rows)
    model = EmbeddingModel(1, variant, np.zeros((points, 1)), influence, spaces=spaces,
                           shared_space=shared)
    return model, draw(st.lists(st.tuples(_IDS, _IDS), max_size=12))


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150)
@given(data=st.data())
def test_slot_rows_join_matches_scalar_lookups(variant, data):
    model, queries = data.draw(_lookup_case(variant))
    sources, users = np.array(queries, dtype=np.int64).reshape(-1, 2).T
    x, y = model._slot_rows(sources, users)
    assert all("view" not in vars(block) for block in model._blocks)
    assert x.dtype == y.dtype == np.int64
    for source, user, row_x, row_y in zip(sources.tolist(), users.tolist(),
                                          x.tolist(), y.tolist()):
        assert row_x == model._influence.get(source, -1)
        assert row_y == (model.space_of(source) or {}).get(user, -1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pack_leaves_only_its_packed_arrays(traced, variant):
    """`_pack_table` keeps nothing but the packed table, and resolves the
    table's pairs without building any block's `{id: row}` view."""
    world = generate_world(6, 40, 4, seed=5)
    table = build_table(emit_cascades(world, 40, 16, seed=6, noise=0.3), mode="full")
    model = init_model(table, TrainConfig(epochs=1, dimension=8, variant=variant),
                       np.random.default_rng(0))
    _pack_table(model, table)  # once first, so that no first-call cache counts
    packed, live, _ = traced(_pack_table, model, table)
    assert packed.margins is table.avg_margin
    assert packed.earlier_slot is table.earlier_pair
    assert packed.later_slot is table.later_pair
    assert packed.rows.size == 2 * len(table.pair_source)
    arrays = packed.rows.nbytes  # the only array the packing allocates
    assert arrays <= live <= arrays + 2048  # the dataclass and the array's header
    assert all("view" not in vars(block) for block in model._blocks)


def _renumbered(model: EmbeddingModel, new_row: np.ndarray) -> EmbeddingModel:
    """A twin of `model` holding the same points, point row r moved to row
    `new_row[r]` and its coordinates with it."""
    coords = np.empty_like(model.coords)
    coords[new_row] = model.coords

    def moved(block):
        return {user: int(new_row[row]) for user, row in block.view.items()}

    influence, *rest = model._blocks
    spaces = shared = None
    if model.variant == "independent":
        spaces = {source: moved(block) for source, block in zip(model._spaces, rest)}
    elif model.variant == "shared_susceptibility":
        shared = moved(rest[0])
    return EmbeddingModel(model.dimension, model.variant, coords, moved(influence),
                          spaces=spaces, shared_space=shared)


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_does_not_depend_on_row_numbering(variant):
    """The same points under another row numbering train to the same
    stats and, point for point, bit-identical coordinates: each coordinate
    sums its gradient terms in the table's pair order."""
    world = generate_world(6, 40, 4, seed=5)
    table = build_table(emit_cascades(world, 40, 16, seed=6, noise=0.3), mode="full")
    model = init_model(table, TrainConfig(epochs=1, dimension=8, variant=variant),
                       np.random.default_rng(0))
    new_row = np.random.default_rng(1).permutation(len(model.coords))
    assert (new_row != np.arange(len(new_row))).any()
    twin = _renumbered(model, new_row)
    for epoch in range(5):
        assert run_epoch(twin, table, 0.05, epoch) == run_epoch(model, table, 0.05, epoch)
    assert np.array_equal(twin.coords[new_row], model.coords)
