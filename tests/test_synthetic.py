from collections import Counter

import numpy as np
import pytest

from casembed.combinations import build_table, extract_triples
from casembed.data import parse_cascade_file, serialize_cascades
from casembed.evaluate import evaluate
from casembed.model import EmbeddingModel, load_model, save_model
from casembed.synthetic import emit_cascades, generate_world


class TestGenerateWorld:
    def test_counts(self):
        model = generate_world(1, 3, 2, seed=0)
        assert len(list(model.influence_users())) == 1
        assert model.susceptibility_size() == 3
        assert model.num_points == 4

    def test_deterministic(self):
        a = generate_world(3, 5, 4, seed=9)
        b = generate_world(3, 5, 4, seed=9)
        assert a == b

    def test_distances_distinct_within_each_space(self):
        model = generate_world(4, 25, 1, seed=2)  # 1-D makes ties most likely
        for s in model.influence_users():
            dists = sorted(model.distance_sq(s, u) for u in model.space_of(s))
            gaps = np.diff(dists)
            assert np.all(gaps >= 1e-9)

    def test_two_users_one_dimension(self):
        model = generate_world(1, 2, 1, seed=5)
        d = [model.distance_sq(0, u) for u in model.space_of(0)]
        assert abs(d[0] - d[1]) >= 1e-9

    def test_rejects_bad_arguments(self):
        for kwargs in (
            dict(num_sources=0, users_per_source=2, dimension=2, seed=0),
            dict(num_sources=1, users_per_source=0, dimension=2, seed=0),
            dict(num_sources=1, users_per_source=2, dimension=0, seed=0),
        ):
            with pytest.raises(ValueError):
                generate_world(**kwargs)


class TestEmitCascades:
    def test_noiseless_follows_distance_order(self):
        model = generate_world(3, 10, 3, seed=11)
        dataset = emit_cascades(model, 15, 6, seed=12)
        assert dataset.num_cascades == 45
        for cascade in dataset:
            source = model.user_id(dataset.token(cascade.source))
            dists = [
                model.distance_sq(source, model.user_id(dataset.token(u)))
                for u in cascade.infected
            ]
            assert dists == sorted(dists)

    def test_nearer_users_are_drawn_more_often(self):
        """Members follow the heat kernel: the nearer half of a pool is drawn
        at least ten times as often as the farther half (a uniform draw
        would draw both halves equally often)."""
        world = generate_world(1, 20, 4, seed=17)
        dataset = emit_cascades(world, 200, 5, seed=18)
        drawn = Counter(dataset.token(u) for cascade in dataset for u in cascade.infected)
        by_distance = sorted(world.space_of(0), key=lambda u: world.distance_sq(0, u))
        counts = [drawn[world.token(u)] for u in by_distance]
        assert sum(counts) == 200 * 5
        assert sum(counts[:10]) >= 10 * sum(counts[10:])

    def test_full_noise_always_swaps_pairs(self):
        model = generate_world(2, 4, 2, seed=21)
        dataset = emit_cascades(model, 10, 2, seed=22, noise=1.0)
        for cascade in dataset:
            source = model.user_id(dataset.token(cascade.source))
            dists = [
                model.distance_sq(source, model.user_id(dataset.token(u)))
                for u in cascade.infected
            ]
            assert dists[0] > dists[1]  # forced single swap

    def test_noiseless_never_emits_opposite_orientations(self):
        world = generate_world(3, 8, 2, seed=31)
        dataset = emit_cascades(world, 40, 5, seed=32)
        seen = set()
        for cascade in dataset:
            for s, u, v, _ in extract_triples(cascade):
                assert (s, v, u) not in seen
                seen.add((s, u, v))
        # dominant and full tables therefore coincide
        assert set(build_table(dataset, mode="dominant").keys()) == set(
            build_table(dataset, mode="full").keys()
        )

    def test_ground_truth_scores_perfectly_on_full_pools(self):
        world = generate_world(3, 6, 3, seed=41)
        dataset = emit_cascades(world, 8, 6, seed=42)  # cascade pool == candidate pool
        report = evaluate(world, dataset)
        assert report.map == 1.0
        assert all(s.ap == 1.0 for s in report.per_cascade)

    def test_deterministic_per_seed(self):
        world = generate_world(2, 6, 2, seed=51)
        a = emit_cascades(world, 10, 4, seed=52)
        b = emit_cascades(world, 10, 4, seed=52)
        assert serialize_cascades(a) == serialize_cascades(b)
        c = emit_cascades(world, 10, 4, seed=53)
        assert serialize_cascades(a) != serialize_cascades(c)

    def test_membership_stable_across_noise(self):
        world = generate_world(2, 8, 2, seed=61)
        a = emit_cascades(world, 10, 4, seed=62)
        b = emit_cascades(world, 10, 4, seed=62, noise=0.5)
        for x, y in zip(a, b):
            assert sorted(a.token(u) for u in x.users) == sorted(
                b.token(u) for u in y.users
            )

    def test_rejects_oversized_cascades(self):
        world = generate_world(1, 4, 2, seed=71)
        with pytest.raises(ValueError, match="exceeds"):
            emit_cascades(world, 5, 5, seed=72)
        with pytest.raises(ValueError, match="per_source"):
            emit_cascades(world, 0, 3, seed=72)
        with pytest.raises(ValueError, match="noise"):
            emit_cascades(world, 1, 3, seed=72, noise=1.5)

    def test_rejects_models_that_are_not_independent(self):
        coords = np.array([[0.0], [1.0], [2.0]])
        for model in (
            EmbeddingModel(1, "shared_susceptibility", coords, {0: 0}, shared_space={1: 1, 2: 2}),
            EmbeddingModel(1, "single_space", coords, {0: 0, 1: 1, 2: 2}),
        ):
            with pytest.raises(ValueError, match="independent"):
                emit_cascades(model, 1, 1, seed=0)

    def test_saved_world_emits_the_same_corpus(self):
        """The model file `synth` writes is enough to regenerate its corpus."""
        world = generate_world(3, 7, 2, seed=91)
        again = load_model(save_model(world))
        assert serialize_cascades(emit_cascades(again, 5, 4, seed=92, noise=0.3)) == (
            serialize_cascades(emit_cascades(world, 5, 4, seed=92, noise=0.3)))

    def test_round_trips_through_cascade_format(self):
        world = generate_world(2, 5, 2, seed=81)
        dataset = emit_cascades(world, 6, 4, seed=82)
        again = parse_cascade_file(serialize_cascades(dataset))
        assert [c.cascade_id for c in again] == [c.cascade_id for c in dataset]
        for x, y in zip(again, dataset):
            assert [again.token(u) for u in x.users] == [dataset.token(u) for u in y.users]
