import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from casembed.combinations import (
    ENTRY,
    MODES,
    _unique_first,
    Combination,
    CombinationTable,
    build_table,
    critical_margin,
    dump_table_tsv,
    extract_triples,
)
from casembed.data import CascadeDataset, parse_cascade_file


def _dataset(*rows):
    return CascadeDataset.from_token_rows(
        [(f"c{i}", [str(u) for u in row]) for i, row in enumerate(rows)]
    )


class TestCriticalMargin:
    def test_worked_values(self):
        # the two margins of pair (3, 4) in (1,5,3,7,4) and (1,3,5,7,4)
        assert critical_margin(2, 4, 2.0) == pytest.approx(0.74, abs=0.005)
        assert critical_margin(1, 4, 2.0) == pytest.approx(1.32, abs=0.005)
        assert critical_margin(2, 4, 2.0) == pytest.approx(math.log2(5 / 3), abs=1e-12)
        assert critical_margin(1, 4, 2.0) == pytest.approx(math.log2(2.5), abs=1e-12)

    def test_adjacent_pair(self):
        assert critical_margin(1, 2, 2.0) == pytest.approx(math.log2(1.5), abs=1e-12)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            critical_margin(3, 3, 2.0)
        with pytest.raises(ValueError):
            critical_margin(4, 2, 2.0)
        with pytest.raises(ValueError):
            critical_margin(0, 2, 2.0)
        with pytest.raises(ValueError):
            critical_margin(1, 2, 1.0)

    def test_positive_and_monotonic(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t_i = int(rng.integers(1, 50))
            gap = int(rng.integers(1, 50))
            mu = float(rng.uniform(1.1, 10.0))
            value = critical_margin(t_i, t_i + gap, mu)
            assert value > 0
            # larger t_later for fixed t_earlier -> larger margin
            assert critical_margin(t_i, t_i + gap + 1, mu) > value
            # same gap later in the cascade -> smaller margin
            assert critical_margin(t_i + 1, t_i + 1 + gap, mu) < value


class TestExtractTriples:
    def test_sample_cascade(self):
        ds = parse_cascade_file("c1\t1 5 3 7 4\n")
        triples = extract_triples(ds[0], 2.0)
        assert len(triples) == 6  # C(4, 2)
        by_pair = {
            (ds.token(a), ds.token(b)): m for _, a, b, m in triples
        }
        assert by_pair[("3", "4")] == pytest.approx(math.log2(5 / 3), abs=1e-12)
        assert by_pair[("5", "4")] == pytest.approx(math.log2(2.5), abs=1e-12)
        sources = {s for s, _, _, _ in triples}
        assert sources == {ds.user_id("1")}

    def test_reordered_cascade(self):
        ds = parse_cascade_file("c2\t1 3 5 7 4\n")
        triples = extract_triples(ds[0], 2.0)
        by_pair = {(ds.token(a), ds.token(b)): m for _, a, b, m in triples}
        assert by_pair[("3", "4")] == pytest.approx(1.32, abs=0.005)

    def test_single_infected_emits_nothing(self):
        ds = parse_cascade_file("c\t1 5\n")
        assert extract_triples(ds[0]) == []

    def test_triple_count_matches_binomial(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            users = list(map(str, range(n + 1)))
            ds = CascadeDataset.from_token_rows([("c", users)])
            assert len(extract_triples(ds[0])) == n * (n - 1) // 2


class TestBuildTable:
    def test_merged_average(self):
        ds = _dataset([1, 5, 3, 7, 4], [1, 3, 5, 7, 4])
        table = build_table(ds, 2.0, mode="full")
        combo = table.get(ds.user_id("1"), ds.user_id("3"), ds.user_id("4"))
        assert combo is not None
        assert combo.count == 2
        assert combo.avg_margin == pytest.approx(1.03, abs=0.005)
        expected = (math.log2(5 / 3) + math.log2(2.5)) / 2
        assert combo.avg_margin == pytest.approx(expected, abs=1e-12)

    def test_dominant_tie_drops_both(self):
        ds = _dataset([1, 2, 3], [1, 3, 2])
        table = build_table(ds, 2.0, mode="dominant")
        assert len(table) == 0

    def test_dominant_majority_wins(self):
        ds = _dataset([1, 2, 3], [1, 2, 3], [1, 3, 2])
        table = build_table(ds, 2.0, mode="dominant")
        one, two, three = ds.user_id("1"), ds.user_id("2"), ds.user_id("3")
        kept = table.get(one, two, three)
        assert kept is not None and kept.count == 2
        assert table.get(one, three, two) is None

    def test_unopposed_combination_is_retained(self):
        ds = _dataset([1, 2, 3])
        table = build_table(ds, 2.0, mode="dominant")
        assert len(table) == 1

    def test_dominant_never_larger_than_full(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ds = _random_dataset(rng)
            full = build_table(ds, 2.0, mode="full")
            dom = build_table(ds, 2.0, mode="dominant")
            assert len(dom) <= len(full)
            assert set(dom.keys()) <= set(full.keys())
            # no opposite orientations survive dominance
            for s, u, v in dom.keys():
                assert (s, v, u) not in dom

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            build_table(_dataset([1, 2, 3]), 2.0, mode="sometimes")


def _random_dataset(rng, max_users=8, max_cascades=20, max_len=6):
    n_users = int(rng.integers(3, max_users + 1))
    rows = []
    for k in range(int(rng.integers(1, max_cascades + 1))):
        length = int(rng.integers(2, min(max_len, n_users) + 1))
        chosen = rng.choice(n_users, size=length, replace=False)
        rows.append((f"c{k}", [str(u) for u in chosen]))
    return CascadeDataset.from_token_rows(rows)


def _brute_force_table(dataset, mu, mode):
    """Naive aggregation: enumerate position pairs per cascade, collect margin
    lists per key, then average; dominance compares raw list lengths."""
    margins = {}
    for c in dataset:
        infected = c.infected
        for i in range(len(infected)):
            for j in range(i + 1, len(infected)):
                key = (c.source, infected[i], infected[j])
                t_i, t_j = i + 1, j + 1
                value = math.log(1 + (t_j - t_i) / (1 + t_i), mu)
                margins.setdefault(key, []).append(value)
    result = {}
    for key, values in margins.items():
        if mode == "dominant":
            opposite = margins.get((key[0], key[2], key[1]))
            if opposite is not None and len(opposite) >= len(values):
                continue
        result[key] = (len(values), sum(values) / len(values))
    return result


def test_table_matches_brute_force_oracle():
    rng = np.random.default_rng(29)
    for _ in range(40):
        ds = _random_dataset(rng)
        mu = float(rng.choice([1.5, 2.0, math.e]))
        for mode in ("full", "dominant"):
            expected = _brute_force_table(ds, mu, mode)
            table = build_table(ds, mu, mode=mode)
            assert set(table.keys()) == set(expected)
            for combo in table:
                count, avg = expected[combo.key]
                assert combo.count == count
                assert combo.avg_margin == pytest.approx(avg, abs=1e-12)


def test_table_order_and_means_follow_the_cascades():
    # entries appear in the order their keys first occur, dominant mode keeps
    # exactly the strictly more frequent orientations, and each mean is a
    # running sum over the cascades in file order, bit for bit
    rng = np.random.default_rng(37)
    for _ in range(20):
        ds = _random_dataset(rng)
        sums, counts = {}, {}
        for cascade in ds:
            for source, earlier, later, margin in extract_triples(cascade, 2.0):
                key = (source, earlier, later)
                sums[key] = sums.get(key, 0.0) + margin
                counts[key] = counts.get(key, 0) + 1
        dominant = [
            key for key in counts
            if counts[key] > counts.get((key[0], key[2], key[1]), 0)
        ]
        for mode, expected in (("full", list(counts)), ("dominant", dominant)):
            table = build_table(ds, 2.0, mode=mode)
            assert list(table.keys()) == expected
            for combo in table:
                assert combo.count == counts[combo.key]
                assert combo.avg_margin == sums[combo.key] / counts[combo.key]


def _assert_unique_first_matches_np_unique(key):
    expected = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    for got, want in zip(_unique_first(key), expected, strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("key", [
    [],
    [7],
    [3] * 50,
    np.random.default_rng(4).integers(0, 4, size=20_000),  # heavy repeats
    np.random.default_rng(5).integers(-(2**62), 2**62, size=5_000),
])
def test_unique_first_matches_np_unique(key):
    _assert_unique_first_matches_np_unique(np.asarray(key, dtype=np.int64))


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200)
@given(key=arrays(np.int64, st.integers(0, 300), elements=st.integers(-3, 3) | _INT64))
def test_unique_first_matches_np_unique_on_drawn_keys(key):
    _assert_unique_first_matches_np_unique(key)


def test_total_triples_match_complexity_factor():
    rng = np.random.default_rng(31)
    ds = _random_dataset(rng, max_users=8, max_cascades=15)
    total = sum(len(extract_triples(c)) for c in ds)
    expected = sum(c.num_infected * (c.num_infected - 1) // 2 for c in ds)
    assert total == expected


def test_tsv_dump_format():
    ds = _dataset([1, 5, 3, 7, 4], [1, 3, 5, 7, 4])
    table = build_table(ds, 2.0, mode="full")
    buffer = io.StringIO()
    dump_table_tsv(table, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "source\tearlier\tlater\tcount\tavg_margin"
    assert len(lines) == len(table) + 1
    expected_margin = (math.log2(5 / 3) + math.log2(2.5)) / 2
    target = (
        f"{ds.user_id('1')}\t{ds.user_id('3')}\t{ds.user_id('4')}"
        f"\t2\t{expected_margin:.6f}"
    )
    assert target in lines


def _tsv(table):
    buffer = io.StringIO()
    dump_table_tsv(table, buffer)
    return buffer.getvalue()


# cascades over at most 8 users: a source and up to five infected users each
_cascades = st.lists(
    st.lists(st.integers(0, 7), min_size=2, max_size=6, unique=True), min_size=1, max_size=12
)


class TestColumnarTable:
    @settings(max_examples=80, deadline=None)
    @given(rows=_cascades, mode=st.sampled_from(MODES), mu=st.sampled_from([1.5, 2.0, 10.0]))
    def test_rebuilt_from_views_answers_identically(self, rows, mode, mu):
        table = build_table(_dataset(*rows), mu, mode=mode)
        again = CombinationTable(list(table), table.mode, table.tokens)
        assert list(again) == list(table)
        assert list(again.keys()) == list(table.keys())
        assert len(again) == len(table)
        for key in table.keys():
            assert key in again
            assert again.get(*key) == table.get(*key)
            assert all(type(v) is int for v in key)
        for combo in again:
            assert type(combo.count) is int and type(combo.avg_margin) is float
        absent = (99, 0, 1)
        assert absent not in again and again.get(*absent) is None
        assert _tsv(again) == _tsv(table)

    @settings(max_examples=40, deadline=None)
    @given(rows=_cascades, data=st.data())
    def test_duplicate_key_or_nonpositive_margin_rejected(self, rows, data):
        table = build_table(_dataset(*rows), 2.0, mode="full")
        if not len(table):
            return
        combos = list(table)
        n = data.draw(st.integers(0, len(combos) - 1))
        with pytest.raises(ValueError, match="twice"):
            CombinationTable(combos + [combos[n]], table.mode)
        entries = np.array([(*c.key, c.count, c.avg_margin) for c in combos], dtype=ENTRY)
        entries["avg_margin"][n] = data.draw(st.sampled_from([0.0, -0.0, -1e-300, -2.5, np.nan]))
        with pytest.raises(ValueError, match="avg_margin"):
            CombinationTable(entries, table.mode)

    def test_array_rows_checked_like_entries(self):
        def rows(*entries):
            return np.array(list(entries), dtype=ENTRY)

        for bad, problem in (
            (rows((1, 2, 2, 1, 0.5)), "distinct"),
            (rows((1, 1, 2, 1, 0.5)), "distinct"),
            (rows((1, 2, 3, 0, 0.5)), "count"),
        ):
            with pytest.raises(ValueError, match=problem):
                CombinationTable(bad, "full")
        table = CombinationTable(rows((1, 2, 3, 2, 0.5), (1, 3, 2, 1, 0.25)), "full")
        assert list(table) == [Combination(1, 2, 3, 2, 0.5), Combination(1, 3, 2, 1, 0.25)]
        with pytest.raises(ValueError):
            table.avg_margin[0] = 1.0  # columns are read-only

    def test_columns_have_fixed_dtypes(self):
        table = build_table(_dataset([1, 2, 3, 4], [2, 1, 3]), 2.0, mode="full")
        for name in ("source", "earlier", "later", "count"):
            assert getattr(table, name).dtype == np.int64
        assert table.avg_margin.dtype == np.float64
        empty = CombinationTable([], "dominant")
        assert len(empty) == 0 and list(empty) == [] and empty.source.dtype == np.int64
