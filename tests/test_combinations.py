import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import casembed.combinations as combinations
from casembed.combinations import (
    ENTRY,
    MODES,
    _sorted_runs,
    Combination,
    CombinationTable,
    build_table,
    critical_margin,
    dump_table_tsv,
    extract_triples,
)
from casembed.data import CascadeDataset, parse_cascade_file
from casembed.synthetic import emit_cascades, generate_world


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

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 1.0, 0.5])
    def test_rejects_a_base_that_is_not_finite_above_one(self, mu):
        with pytest.raises(ValueError, match="mu must be finite and exceed 1"):
            critical_margin(1, 2, mu)

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

    @pytest.mark.parametrize("mu", [0.5, 1.0, math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["dominant", "full"])
    def test_rejects_a_bad_mu_even_without_triples(self, mu, mode):
        # every cascade has one infected user, so no margin is ever computed
        ds = _dataset([1, 2], [3, 4])
        with pytest.raises(ValueError, match="mu must be finite and exceed 1"):
            build_table(ds, mu, mode=mode)

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


def _running_sum_oracle(dataset, mu, mode):
    """Keys in first-occurrence order with counts and running margin sums
    over the cascades in file order; dominant mode keeps the strictly more
    frequent orientation of each pair."""
    sums, counts = {}, {}
    for cascade in dataset:
        for source, earlier, later, margin in extract_triples(cascade, mu):
            key = (source, earlier, later)
            sums[key] = sums.get(key, 0.0) + margin
            counts[key] = counts.get(key, 0) + 1
    keys = [
        key for key in counts
        if mode == "full" or counts[key] > counts.get((key[0], key[2], key[1]), 0)
    ]
    return keys, counts, sums


# Cascades over a pool of six users: heavy repeats. A cascade is a source
# and one to five infected users, so some cascades yield no triples; drawn
# indices repeat cascades with their infected users reversed, so both
# orientations of many pairs occur, often equally often.
_mixed_cascades = st.lists(
    st.lists(st.integers(0, 5), min_size=2, max_size=6, unique=True), max_size=14
)


@st.composite
def _mirrored_cascades(draw):
    rows = draw(_mixed_cascades)
    mirrored = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=len(rows)))
    return rows + [rows[k][:1] + rows[k][:0:-1] for k in mirrored if rows]


@settings(max_examples=200, deadline=None)
@given(
    rows=_mirrored_cascades(),
    mode=st.sampled_from(MODES),
    mu=st.sampled_from([1.5, 2.0, math.e]),
)
def test_table_equals_running_sum_oracle_on_drawn_datasets(rows, mode, mu):
    dataset = _dataset(*rows)
    keys, counts, sums = _running_sum_oracle(dataset, mu, mode)
    table = build_table(dataset, mu, mode=mode)
    # keys are distinct although the build's table skips the sort proving it
    assert len(set(zip(table.source.tolist(), table.earlier.tolist(),
                       table.later.tolist()))) == len(table)
    assert list(table.keys()) == keys
    assert table.count.tolist() == [counts[key] for key in keys]
    assert table.avg_margin.tolist() == [sums[key] / counts[key] for key in keys]
    # the numbering the build hands over equals the one computed on first use
    lazy = CombinationTable(list(table), table.mode, table.tokens)
    for name in ("pair_source", "pair_user", "earlier_pair", "later_pair"):
        np.testing.assert_array_equal(getattr(table, name), getattr(lazy, name), strict=True)


def _assert_sorted_runs_match_stable_argsort(key):
    order = np.argsort(key, kind="stable")
    ordered, position = _sorted_runs(key.copy())
    np.testing.assert_array_equal(position, order, strict=True)
    np.testing.assert_array_equal(ordered, key[order], strict=True)


@pytest.mark.parametrize("size", [0, 1, 2, 5000])
@pytest.mark.parametrize("top", [
    0,
    3,
    2**50,
    2**62,  # the packed key overflows int64: the argsort fallback
    2**63 - 1,
])
def test_sorted_runs_match_stable_argsort(size, top):
    rng = np.random.default_rng(size)
    # repeated keys near `top`, and the top itself
    key = top - rng.integers(0, 4, size=size)
    key = np.clip(key, 0, None)
    key[: size // 2] = top
    _assert_sorted_runs_match_stable_argsort(key)


@pytest.mark.parametrize("size", [2, 3, 1000, 4096, 4097])
def test_sorted_runs_on_both_sides_of_the_packing_limit(size):
    # keys of b bits pack with positions of bits(size - 1) bits exactly when b + bits <= 63
    shift = (size - 1).bit_length()
    for top in (2 ** (63 - shift) - 1, 2 ** (63 - shift)):
        key = np.full(size, top, dtype=np.int64)
        key[::3] = top - 1
        _assert_sorted_runs_match_stable_argsort(key)


@settings(max_examples=100)
@given(key=arrays(np.int64, st.integers(0, 300), elements=st.integers(0, 3) | st.integers(0, 2**63 - 1)))
def test_sorted_runs_match_stable_argsort_on_drawn_keys(key):
    _assert_sorted_runs_match_stable_argsort(key)


# Words of 8 bytes that `build_table` may hold at its peak, counting the
# table it returns: per triple, plus per cascade position for the pair
# numbering and the walk over the cascades.
BUILD_WORDS_PER_TRIPLE = 10
BUILD_WORDS_PER_POSITION = 20


def _distinct_triples_dataset():
    """Every cascade under its own source: no two triples share a key, so
    the table is as long as the triple list."""
    rng = np.random.default_rng(1)
    return CascadeDataset.from_token_rows(
        (f"c{k}", [f"s{k}", *(f"u{u}" for u in rng.choice(1000, 20, replace=False))])
        for k in range(150)
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("corpus", ["planted", "distinct"])
def test_build_working_set_is_bounded_per_triple(traced_peak, mode, corpus):
    if corpus == "planted":
        dataset = emit_cascades(generate_world(4, 100, 4, seed=5), 30, 20, seed=6, noise=0.3)
    else:
        dataset = _distinct_triples_dataset()
    triples = sum(c.num_infected * (c.num_infected - 1) // 2 for c in dataset)
    positions = sum(len(c.users) for c in dataset)
    table, peak = traced_peak(build_table, dataset, 2.0, mode)
    assert len(table) <= triples
    bound = 8 * (BUILD_WORDS_PER_TRIPLE * triples + BUILD_WORDS_PER_POSITION * positions)
    assert peak <= bound, f"{peak / 8 / triples:.1f} words per triple"


def _columns(table):
    return (table.pair_source, table.pair_user, table.earlier_pair, table.later_pair,
            table.count, table.avg_margin)


def _build_in_groups(dataset, mu, mode, bound):
    with mock.patch.object(combinations, "_GROUP_TRIPLES", bound):
        return build_table(dataset, mu, mode)


def _assert_bit_equal(grouped, whole):
    assert grouped.mode == whole.mode and grouped.tokens == whole.tokens
    for got, want in zip(_columns(grouped), _columns(whole)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# bound 1 puts every source in a group of its own
@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=6, unique=True),
                     min_size=1, max_size=16),
       mode=st.sampled_from(MODES), bound=st.sampled_from([1, 4, 12]))
def test_grouped_build_is_bit_equal_to_one_group(rows, mode, bound):
    """Entries, counts, margins and the pair numbering do not depend on how
    the sources are grouped."""
    dataset = _dataset(*rows)
    whole = _build_in_groups(dataset, 2.0, mode, 2**62)
    _assert_bit_equal(_build_in_groups(dataset, 2.0, mode, bound), whole)


@pytest.mark.parametrize("bound", [1, 200])
def test_grouped_build_is_bit_equal_on_random_corpora(bound):
    rng = np.random.default_rng(43)
    for _ in range(20):
        dataset = _random_dataset(rng, max_users=30, max_cascades=60, max_len=12)
        mu = float(rng.choice([1.5, 2.0, math.e]))
        for mode in MODES:
            whole = _build_in_groups(dataset, mu, mode, 2**62)
            _assert_bit_equal(_build_in_groups(dataset, mu, mode, bound), whole)


def _repeating_corpus(sources, cascades_per_source, pool=24, seed=0):
    """Each source's cascades order its whole pool of `pool` users afresh, so
    triples grow with the cascades while combinations stay at most
    pool·(pool − 1) per source."""
    rng = np.random.default_rng(seed)
    return CascadeDataset.from_token_rows(
        (f"c{s}-{k}", [f"s{s}", *(f"u{s}-{u}" for u in rng.permutation(pool))])
        for s in range(sources) for k in range(cascades_per_source)
    )


# Words of 8 bytes a grouped build may hold at its peak: per combination
# (the returned table included), per triple of its largest group, and per
# cascade position.
GROUPED_WORDS_PER_ENTRY = 8
GROUPED_WORDS_PER_GROUP_TRIPLE = 8
GROUPED_WORDS_PER_POSITION = 12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", [(8, 30), (8, 120), (32, 30)])
def test_grouped_build_working_set_does_not_grow_with_triples(traced_peak, mode, shape):
    """Merging one source at a time, the peak is the output columns plus
    O(largest group) plus O(positions): under two words per triple once
    cascades repeat, where a one-group build needs over four."""
    dataset = _repeating_corpus(*shape)
    per_source = shape[1] * 24 * 23 // 2
    triples = shape[0] * per_source
    positions = len(dataset.flat_users)
    table, peak = traced_peak(_build_in_groups, dataset, 2.0, mode, per_source)
    words = (GROUPED_WORDS_PER_ENTRY * len(table) + GROUPED_WORDS_PER_GROUP_TRIPLE * per_source
             + GROUPED_WORDS_PER_POSITION * positions)
    assert peak <= 8 * words, f"{peak / 8 / words:.2f} words per bound word"
    assert peak < 2 * 8 * triples, f"{peak / 8 / triples:.2f} words per triple"


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

    def test_repeats_found_when_ids_span_int64(self):
        # ids across all of int64: no key is packed from ids, so nothing overflows
        big = np.iinfo(np.int64).max
        rows = [(-big, 0, big, 1, 0.5), (big, -big, 0, 1, 0.5), (0, big, -big, 1, 0.5)]
        table = CombinationTable(np.array(rows, dtype=ENTRY), "full")
        assert [c.key for c in table] == [r[:3] for r in rows]
        with pytest.raises(ValueError, match=rf"\({big}, {-big}, 0\) occurs twice"):
            CombinationTable(np.array(rows + rows[1:2], dtype=ENTRY), "full")

    def test_array_rows_checked_like_entries(self):
        def rows(*entries):
            return np.array(list(entries), dtype=ENTRY)

        for bad, problem in (
            (rows((1, 2, 2, 1, 0.5)), "distinct"),
            (rows((1, 1, 2, 1, 0.5)), "distinct"),
            (rows((1, 2, 3, 1, 0.5), (1, 2, 1, 1, 0.5)), r"distinct, got \(1, 2, 1\)"),
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
