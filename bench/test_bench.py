"""Tests of the benchmark's own helpers: python3 -m pytest bench"""

from __future__ import annotations

import math

import pytest

import planted
from planted import Shape, digest, generate
from run import WORKLOADS
from spans import Recorder, self_time, tail_percentile, union_length

SMALL = Shape(sources=3, users_per_source=10, cascades_per_source=4, length=5)


class TestPlanted:
    def test_same_seed_same_bytes(self):
        assert generate(SMALL, 7) == generate(SMALL, 7)
        assert generate(SMALL, 7) != generate(SMALL, 8)

    def test_digest_is_stable(self):
        # Pinned: a change to the generator would silently change every
        # workload's inputs, so it must show here first.
        assert digest(generate(SMALL, 7)) == (
            "a0a347ff44367e0ba312c970a46b248889c5f1bf02df4fc4947b260c0b75ac3d"
        )

    @pytest.mark.parametrize("name, expected", [
        ("fit-d75", "6893f73acac2f252c0d8ae9bbf27e3ebf47cb4ab600c5837fd8b187a36c7ad26"),
        ("predict-wide", "07e488c5ca3f1164fefd0dcf4b3af2370420f556307584fe54e2a3c256415efc"),
    ])
    def test_workload_inputs_are_pinned(self, name, expected):
        assert digest(generate(WORKLOADS[name].shape, 1)) == expected

    def test_format_and_pools(self):
        lines = generate(SMALL, 3).decode("utf-8").splitlines()
        assert len(lines) == SMALL.sources * SMALL.cascades_per_source
        for line in lines:
            cascade_id, users = line.split("\t")
            source, *infected = users.split()
            assert cascade_id.startswith(source + "-c")
            assert len(infected) == len(set(infected)) == SMALL.length
            pool = int(source[1:])
            for user in infected:
                assert int(user[1:]) // SMALL.users_per_source == pool

    def test_noiseless_order_follows_distance(self, monkeypatch):
        # Without swaps every cascade of a source is ordered consistently:
        # no pair of users appears in both orders.
        monkeypatch.setattr(planted, "NOISE", 0.0)
        shape = Shape(2, 12, 30, 6)
        seen = set()
        for line in generate(shape, 1).decode("utf-8").splitlines():
            source, *infected = line.split("\t")[1].split()
            for i in range(len(infected)):
                for j in range(i + 1, len(infected)):
                    assert (source, infected[j], infected[i]) not in seen
                    seen.add((source, infected[i], infected[j]))

    @pytest.mark.parametrize("kwargs", [
        dict(sources=0, users_per_source=5, cascades_per_source=1, length=2),
        dict(sources=1, users_per_source=5, cascades_per_source=1, length=6),
    ])
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            Shape(**kwargs)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        # Two pool threads overlap on [2, 3]: covered part is [1, 4] and
        # [6, 7], 4 s of a 10 s parent, although the spans sum to 5 s.
        children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]
        assert self_time(0.0, 10.0, children) == pytest.approx(6.0)

    def test_children_clipped_to_parent(self):
        assert self_time(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0), (6.0, 8.0)]) == pytest.approx(1.0)

    def test_nested_and_touching(self):
        assert union_length([(0.0, 5.0), (1.0, 2.0), (5.0, 6.0)]) == pytest.approx(6.0)
        assert self_time(0.0, 1.0, []) == 1.0

    def test_recorder_spans_parents_and_restore(self):
        class Owner:
            @staticmethod
            def inner(x):
                return x + 1

        def outer(x):
            return Owner.inner(x) * 2

        namespace = type("Namespace", (), {"outer": staticmethod(outer)})
        rec = Recorder()
        rec.wrap(Owner, "inner", "inner", keep=True)
        rec.wrap(namespace, "outer", "outer")
        assert namespace.outer(3) == 8
        rec.restore()
        assert namespace.outer(3) == 8 and len(rec.spans) == 2
        inner, outer_span = rec.spans
        assert (inner.name, inner.parent) == ("inner", "outer")
        assert outer_span.parent is None
        assert outer_span.start <= inner.start <= inner.end <= outer_span.end
        assert rec.results["inner"] == [((3,), {}, 4)]


class TestTailPercentile:
    def test_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 201))  # 200 samples
        # p95 has rank 190 and 10 samples beyond; p99 would leave only 2.
        assert tail_percentile(samples) == (95.0, 190, 200)

    def test_large_sample_reaches_p99(self):
        samples = [float(i) for i in range(4000)]
        pct, value, n = tail_percentile(samples)
        assert (pct, n) == (99.0, 4000)
        assert value == 3959.0  # rank 3960, 40 beyond; p99.9 leaves only 4

    def test_exact_boundary_and_too_few(self):
        # 20 samples: p50 leaves exactly 10 beyond, p75 only 5.
        assert tail_percentile(range(20)) == (50.0, 9, 20)
        assert tail_percentile(range(19)) is None

    def test_order_does_not_matter(self):
        samples = [math.sin(i) for i in range(500)]
        assert tail_percentile(samples) == tail_percentile(sorted(samples))
