import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casembed.data import (
    Cascade,
    CascadeDataset,
    CascadeError,
    CascadeParseError,
    CascadeValidationError,
    load_cascade_file,
    parse_cascade_file,
    serialize_cascades,
    split_dataset,
)

SAMPLE = "c1\t1 5 3 7 4\n"


def test_parse_sample_cascade():
    ds = parse_cascade_file(SAMPLE)
    assert ds.num_cascades == 1
    c = ds[0]
    assert c.cascade_id == "c1"
    assert ds.token(c.source) == "1"
    assert [ds.token(u) for u in c.infected] == ["5", "3", "7", "4"]
    # infection orders are 1-based positions among the infected users
    assert c.infection_order(ds.user_id("3")) == 2
    assert c.infection_order(ds.user_id("4")) == 4
    assert c.infection_order(ds.user_id("5")) == 1
    assert c.infection_order(c.source) is None
    assert c.infection_order(999) is None


def test_interning_first_appearance_order():
    ds = parse_cascade_file("a\tx y\nb\tz y w\n")
    assert ds.tokens == ("x", "y", "z", "w")
    assert ds.user_id("z") == 2
    assert ds.user_id("missing") is None


def test_parse_skips_comments_blank_and_crlf():
    text = "# a comment\n\n   \nc1\t1 2\r\nc2\t2 3\r\n"
    ds = parse_cascade_file(text)
    assert [c.cascade_id for c in ds] == ["c1", "c2"]
    assert ds.num_users == 3


def test_parse_empty_file():
    ds = parse_cascade_file("")
    assert ds.num_cascades == 0
    assert ds.num_users == 0


def test_parse_rejects_short_line():
    with pytest.raises(CascadeParseError, match="line 2"):
        parse_cascade_file("c1\t1 2\nc2\t9\n")


def test_parse_rejects_missing_tab():
    with pytest.raises(CascadeParseError, match="line 1"):
        parse_cascade_file("c1 1 2\n")


def test_parse_rejects_duplicate_user():
    with pytest.raises(CascadeValidationError, match=r"line 1.*'9'"):
        parse_cascade_file("c0\t9 9\n")


def test_cascade_invariants():
    with pytest.raises(CascadeValidationError):
        Cascade("x", (1,))
    with pytest.raises(CascadeValidationError):
        Cascade("x", (1, 2, 1))


def test_infection_order_is_bijection_onto_ranks():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        users = tuple(map(int, rng.choice(1000, size=n + 1, replace=False)))
        c = Cascade("c", users)
        ranks = sorted(c.infection_order(u) for u in c.infected)
        assert ranks == list(range(1, n + 1))


def _random_dataset(rng, max_users=12, max_cascades=10):
    rows = []
    n_users = int(rng.integers(2, max_users + 1))
    tokens = [f"user{i}" for i in range(n_users)]
    for k in range(int(rng.integers(1, max_cascades + 1))):
        length = int(rng.integers(2, n_users + 1))
        chosen = rng.choice(n_users, size=length, replace=False)
        rows.append((f"c{k}", [tokens[i] for i in chosen]))
    return CascadeDataset.from_token_rows(rows)


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(25):
        ds = _random_dataset(rng)
        again = parse_cascade_file(serialize_cascades(ds))
        assert [c.cascade_id for c in again] == [c.cascade_id for c in ds]
        assert again.tokens[: len(ds.users)] or True
        for a, b in zip(again, ds):
            assert [again.token(u) for u in a.users] == [ds.token(u) for u in b.users]
            assert a.users == b.users  # identical first-appearance interning


def test_serialize_rejects_an_id_read_back_as_a_comment():
    ds = CascadeDataset.from_token_rows([("#x", ["a", "b"]), ("y", ["a", "c"])])
    # written out, the first line would parse as a comment and leave only 'y'
    with pytest.raises(CascadeValidationError, match="'#x'"):
        serialize_cascades(ds)


@pytest.mark.parametrize("cascade_id", ["", " \x0b", "a\tb", "a\nb", "a\rb", "#x"])
def test_serialize_rejects_ids_text_cannot_carry(cascade_id):
    ds = CascadeDataset.from_token_rows([("ok", ["a", "b"]), (cascade_id, ["a", "c"])])
    with pytest.raises(CascadeValidationError, match=re.escape(repr(cascade_id))):
        serialize_cascades(ds)


@pytest.mark.parametrize("token", ["", "a b", "a\tb", "a\x1cb", "b\n"])
def test_serialize_rejects_tokens_text_cannot_carry(token):
    ds = CascadeDataset.from_token_rows([("c1", ["a", "b"]), ("c2", ["a", token])])
    with pytest.raises(CascadeValidationError, match=re.escape(repr(token))):
        serialize_cascades(ds)


def _contents(ds):
    return (
        [c.cascade_id for c in ds],
        [[ds.token(u) for u in c.users] for c in ds],
        ds.tokens,
    )


def test_string_splits_lines_like_a_file(tmp_path):
    # \x1c and \u2028 end a line for str.splitlines() but not for a file
    text = "a\x1cb\tx y\nc\u2028d\tx z\r\n# note\x85more\n"
    path = tmp_path / "odd.cascades"
    path.write_bytes(text.encode("utf-8"))
    ds = parse_cascade_file(text)
    assert [c.cascade_id for c in ds] == ["a\x1cb", "c\u2028d"]
    assert _contents(ds) == _contents(load_cascade_file(path))


# Grammar of a cascade file: an id is any text without tab or line break that
# does not start with '#' and is not blank; a user token is any text without
# whitespace. Both may hold characters that other line splitters break at.
_ODD = "\x1c\x1d\x1e\x85\x0b\x0c\u2028\u2029"
_id = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r")
    | st.sampled_from(_ODD),
    min_size=1, max_size=6,
).filter(lambda s: s.strip() and not s.startswith("#"))
_token = st.text(
    st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4
).filter(lambda t: t.split() == [t])
_cascade_line = st.builds(
    lambda cascade_id, users: f"{cascade_id}\t{' '.join(users)}",
    _id, st.lists(_token, min_size=2, max_size=5, unique=True),
)
_comment = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\n\r")
    | st.sampled_from(_ODD),
    max_size=6,
).map(lambda s: "#" + s)
_blank = st.text(st.sampled_from(" \t"), max_size=3)
_text = st.lists(
    st.tuples(st.one_of(_cascade_line, _cascade_line, _comment, _blank),
              st.sampled_from(["\n", "\r\n"])),
    max_size=8,
).map(lambda lines: "".join(line + end for line, end in lines))


@settings(max_examples=150)
@given(text=_text)
def test_string_and_file_parse_alike(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "property.cascades"
    path.write_bytes(text.encode("utf-8"))
    assert _contents(parse_cascade_file(text)) == _contents(load_cascade_file(path))


@settings(max_examples=150)
@given(text=_text)
def test_parse_serialize_parse_round_trip(text):
    ds = parse_cascade_file(text)
    assert _contents(parse_cascade_file(serialize_cascades(ds))) == _contents(ds)


def test_dataset_users_is_union_of_members():
    ds = parse_cascade_file("c1\t1 2\nc2\t3 4 5\n")
    assert ds.users == {0, 1, 2, 3, 4}
    assert ds.num_users == 5


class TestSplit:
    def _dataset(self, n=10):
        rows = [(f"c{i}", [f"s{i}", f"a{i}", f"b{i}"]) for i in range(n)]
        return CascadeDataset.from_token_rows(rows)

    def test_counts(self):
        train, test = split_dataset(self._dataset(10), 0.2, seed=7)
        assert train.num_cascades == 8
        assert test.num_cascades == 2

    def test_partition_by_cascade_id(self):
        ds = self._dataset(17)
        train, test = split_dataset(ds, 0.3, seed=3)
        train_ids = [c.cascade_id for c in train]
        test_ids = [c.cascade_id for c in test]
        assert set(train_ids).isdisjoint(test_ids)
        assert sorted(train_ids + test_ids) == sorted(c.cascade_id for c in ds)

    def test_deterministic(self):
        ds = self._dataset(12)
        first = split_dataset(ds, 0.25, seed=42)
        second = split_dataset(ds, 0.25, seed=42)
        assert [c.cascade_id for c in first[1]] == [c.cascade_id for c in second[1]]

    def test_too_small(self):
        with pytest.raises(CascadeError):
            split_dataset(self._dataset(1), 0.5, seed=0)

    def test_bad_fraction(self):
        ds = self._dataset(4)
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_dataset(ds, frac, seed=0)

    def test_splits_share_token_table(self):
        ds = self._dataset(6)
        train, test = split_dataset(ds, 0.5, seed=1)
        assert train.tokens == ds.tokens
        assert test.tokens == ds.tokens

    def test_duplicate_cascade_ids_partition_as_multiset(self):
        rows = [("same", [f"s{i}", f"a{i}"]) for i in range(8)]
        ds = CascadeDataset.from_token_rows(rows)
        train, test = split_dataset(ds, 0.25, seed=9)
        combined = sorted(
            [c.cascade_id for c in train] + [c.cascade_id for c in test]
        )
        assert combined == sorted(c.cascade_id for c in ds)
        assert train.num_cascades + test.num_cascades == ds.num_cascades
