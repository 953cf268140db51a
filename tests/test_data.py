import builtins
import io
import os
import re
import stat

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
    _check_cascade_ids,
    load_cascade_file,
    parse_cascade_file,
    save_cascade_file,
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


def test_rejected_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "old.cascades"
    path.write_bytes(SAMPLE.encode())
    unsavable = CascadeDataset([Cascade("c1", (0, 1))], ["a b", "c"])
    with pytest.raises(CascadeValidationError, match="whitespace"):
        save_cascade_file(unsavable, path)
    assert path.read_bytes() == SAMPLE.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["old.cascades"]


def test_failed_rename_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "old.cascades"
    path.write_bytes(SAMPLE.encode())

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_cascade_file(parse_cascade_file("c2\ta b\n"), path)
    assert path.read_bytes() == SAMPLE.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["old.cascades"]


def test_save_draws_another_temp_name_after_a_collision(tmp_path, monkeypatch):
    path = tmp_path / "old.cascades"
    taken = tmp_path / "old.cascades.00000000.tmp"
    taken.write_bytes(b"someone else's")
    draws = iter([b"\0\0\0\0", b"\0\0\0\1"])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    save_cascade_file(parse_cascade_file(SAMPLE), path)
    assert path.read_bytes() == SAMPLE.encode()
    assert taken.read_bytes() == b"someone else's"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.cascades", taken.name]


def test_save_refuses_when_every_temp_name_is_taken(tmp_path, monkeypatch):
    path = tmp_path / "old.cascades"
    path.write_bytes(SAMPLE.encode())
    taken = tmp_path / "old.cascades.00000000.tmp"
    taken.write_bytes(b"")
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    with pytest.raises(FileExistsError, match="no free temp file name"):
        save_cascade_file(parse_cascade_file("c2\ta b\n"), path)
    assert path.read_bytes() == SAMPLE.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.cascades", taken.name]


def test_save_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "real.cascades"
    target.write_bytes(b"old\tx y\n")
    link = tmp_path / "link.cascades"
    link.symlink_to(target)
    dataset = parse_cascade_file(SAMPLE)
    save_cascade_file(dataset, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == SAMPLE.encode()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.cascades",
                                                          "real.cascades"]


def test_save_through_a_symlink_to_a_device_writes_in_place(tmp_path):
    link = tmp_path / "sink"
    link.symlink_to("/dev/null")
    save_cascade_file(parse_cascade_file(SAMPLE), link)
    assert link.is_symlink() and os.readlink(link) == "/dev/null"
    assert stat.S_ISCHR(os.stat(link).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["sink"]


def test_save_to_a_fifo_writes_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
    try:
        save_cascade_file(parse_cascade_file(SAMPLE), fifo)
        assert os.read(reader, 1 << 16) == SAMPLE.encode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


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


class TestUndecodableLine:
    """A byte that is not UTF-8 names its line, counted from the start of the
    file under every line ending, not from the decoder's chunk."""

    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.cascades"
        path.write_bytes(b"c1\ta b\r\n# note\rc3\ta \xff b\nc4\tlonely\n")
        with pytest.raises(CascadeParseError, match=r"^line 3: not valid UTF-8$"):
            load_cascade_file(path)

    @pytest.mark.parametrize("line, error, message", [
        ("c2\tlonely", CascadeParseError, "line 2: expected"),
        ("c2\tx y x", CascadeValidationError, "line 2: duplicate user 'x'"),
    ], ids=["malformed", "repeat"])
    def test_earlier_line_error_comes_first(self, tmp_path, line, error, message):
        path = tmp_path / "bad.cascades"
        path.write_bytes(b"c1\ta b\n" + line.encode() + b"\nc3\ta \xc3 b\n")
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            load_cascade_file(path)

    def test_line_past_the_first_chunk(self, tmp_path):
        lines = [f"c{k}\tu{k} v{k} w{k}".encode() for k in range(5000)]
        lines[4000] = b"c4000\tu\xe9 v"
        path = tmp_path / "bad.cascades"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CascadeParseError, match=r"^line 4001: not valid UTF-8$"):
            load_cascade_file(path)


@pytest.mark.parametrize("data, error", [
    (b"c1\ta b\r\nc2\tb c\n", None),
    (b"c1\ta b\r\nc2\tb \xff c\n", "line 2: not valid UTF-8"),
], ids=["good", "undecodable"])
def test_load_opens_its_file_once(tmp_path, monkeypatch, data, error):
    path = tmp_path / "corpus.cascades"
    path.write_bytes(data)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    if error is None:
        assert load_cascade_file(path).cascade_ids == ("c1", "c2")
    else:
        with pytest.raises(CascadeParseError, match=f"^{error}$"):
            load_cascade_file(path)
    assert opened == [path]


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


_break = st.sampled_from(["\r", "\n", "\r\n"])
_any_id = st.one_of(
    _id,
    st.builds(lambda a, end, b: a + end + b, _id | st.just(""), _break, _id | st.just("")),
    st.text(st.sampled_from(_ODD + "\t\r\n# a"), max_size=4),
)


@settings(max_examples=300)
@given(cascade_id=_any_id)
def test_id_check_accepts_exactly_the_ids_that_round_trip(cascade_id):
    """An id passes `_check_cascade_ids` exactly when a one-cascade dataset
    holding it serializes to a line that parses back to that id."""
    dataset = CascadeDataset.from_token_rows([(cascade_id, ["a", "b"])])
    line = f"{cascade_id}\ta b\n"  # what serialize_cascades writes, had it no check
    try:
        round_trips = parse_cascade_file(line).cascade_ids == (cascade_id,)
    except CascadeError:
        round_trips = False
    try:
        _check_cascade_ids([cascade_id])
    except CascadeValidationError:
        assert not round_trips
        with pytest.raises(CascadeValidationError):
            serialize_cascades(dataset)
    else:
        assert round_trips
        assert serialize_cascades(dataset) == line


def test_dataset_users_is_union_of_members():
    ds = parse_cascade_file("c1\t1 2\nc2\t3 4 5\n")
    assert ds.users == {0, 1, 2, 3, 4}
    assert ds.num_users == 5


@pytest.mark.parametrize("users, tokens, message", [
    ((0, 1), ("a", "b", "a"), "token table contains duplicate tokens"),
    ((0, 2), ("a", "b"), "user id 2 has no token table entry"),
    ((-1, 0), ("a", "b"), "user id -1 has no token table entry"),
    ((0, 1), ("a",), "user id 1 has no token table entry"),
], ids=["repeated-token", "id-past-table", "negative-id", "short-table"])
def test_dataset_rejects_a_bad_token_table(users, tokens, message):
    with pytest.raises(CascadeValidationError, match=f"^{re.escape(message)}$"):
        CascadeDataset([Cascade("c", (0, 1)), Cascade("d", users)], tokens)


def _lines(rows):
    return "".join(f"{cascade_id}\t{' '.join(users)}\n" for cascade_id, users in rows)


# Rows whose tokens are unique within the row; the small pool makes rows share
# tokens, so interning must reuse ids across lines.
_pool_token = st.sampled_from(["a", "b", "c", "ü", "x1", "#"])
_row = st.tuples(_id, st.lists(_token | _pool_token, min_size=2, max_size=5, unique=True))
_repeat_row = st.tuples(
    _id, st.lists(_pool_token, min_size=2, max_size=7).filter(lambda t: len(set(t)) < len(t))
)
_malformed = st.sampled_from(["no tab here", "c\tlonely", "\tx y", "c\t"])


@settings(max_examples=100)
@given(rows=st.lists(_row, max_size=8))
def test_parse_agrees_with_from_token_rows(rows):
    parsed = parse_cascade_file(_lines(rows))
    built = CascadeDataset.from_token_rows(rows)
    assert parsed.tokens == built.tokens
    assert parsed.cascades == built.cascades
    assert parsed.cascade_ids == built.cascade_ids == tuple(cascade_id for cascade_id, _ in rows)
    for name in ("flat_users", "offsets"):
        np.testing.assert_array_equal(getattr(parsed, name), getattr(built, name), strict=True)


@settings(max_examples=100)
@given(before=st.lists(_row, max_size=4), repeat=_repeat_row,
       after=st.lists(_malformed | _row.map(lambda row: _lines([row])[:-1]), max_size=3))
def test_parse_names_the_first_repeated_token_of_the_first_bad_line(before, repeat, after):
    cascade_id, users = repeat
    first = next(tok for i, tok in enumerate(users) if tok in users[:i])
    text = _lines([*before, repeat]) + "".join(line + "\n" for line in after)
    message = f"line {len(before) + 1}: duplicate user {first!r} in cascade {cascade_id!r}"
    with pytest.raises(CascadeValidationError, match=f"^{re.escape(message)}$"):
        parse_cascade_file(text)


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

    @pytest.mark.parametrize("n, frac, sides", [
        (10, 0.04, "10 train + 0 test"), (10, 0.96, "0 train + 10 test"),
        (0, 0.5, "0 train + 0 test"),
    ])
    def test_empty_side_raises(self, n, frac, sides):
        with pytest.raises(CascadeError, match=re.escape(f"into {sides}; both sides")):
            split_dataset(self._dataset(n), frac, seed=0)

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


def _reference_parse(text):
    """Line-by-line parse with a `Cascade` per line: (tokens, [(id, users)]),
    raising as each bad line is read."""
    ids, rows = {}, []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        cascade_id, tab, rest = line.partition("\t")
        user_tokens = rest.split()
        if not tab or not cascade_id.strip() or len(user_tokens) < 2:
            raise CascadeParseError(
                f"line {lineno}: expected '<cascade_id><TAB><source> <user> [...]',"
                f" got {line!r}"
            )
        if len(set(user_tokens)) < len(user_tokens):
            tok = next(tok for i, tok in enumerate(user_tokens) if tok in user_tokens[:i])
            raise CascadeValidationError(
                f"line {lineno}: duplicate user {tok!r} in cascade {cascade_id!r}"
            )
        rows.append((cascade_id, tuple(ids.setdefault(tok, len(ids)) for tok in user_tokens)))
    return tuple(ids), rows


_any_line = st.one_of(
    _row.map(lambda row: _lines([row])[:-1]),
    _repeat_row.map(lambda row: _lines([row])[:-1]),
    _malformed, _comment, _blank,
)


@settings(max_examples=300)
@given(lines=st.lists(st.tuples(_any_line, st.sampled_from(["\n", "\r\n", "\r"])),
                      max_size=8))
def test_parse_matches_the_line_by_line_reference(lines):
    """Result, or the first bad line's error class, message and line number."""
    text = "".join(line + end for line, end in lines)
    try:
        expected = _reference_parse(text)
    except CascadeError as error:
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            parse_cascade_file(text)
        return
    parsed = parse_cascade_file(text)
    assert (parsed.tokens, [(c.cascade_id, c.users) for c in parsed]) == expected


def _reference_split(dataset, test_fraction, seed):
    """Cascade membership as a set of drawn indices, in dataset order."""
    order = np.random.default_rng(seed).permutation(dataset.num_cascades)
    test_idx = set(map(int, order[: int(test_fraction * dataset.num_cascades + 0.5)]))
    rows = [(c.cascade_id, c.users) for c in dataset]
    return ([row for i, row in enumerate(rows) if i not in test_idx],
            [row for i, row in enumerate(rows) if i in test_idx])


@settings(max_examples=150)
@given(rows=st.lists(_row, min_size=2, max_size=30),
       test_fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_split_matches_the_membership_reference(rows, test_fraction, seed):
    """The reference's membership, or CascadeError where it leaves a side empty."""
    dataset = CascadeDataset.from_token_rows(rows)
    expected = _reference_split(dataset, test_fraction, seed)
    if not all(expected):
        with pytest.raises(CascadeError, match="both sides need at least one cascade"):
            split_dataset(dataset, test_fraction, seed)
        return
    train, test = split_dataset(dataset, test_fraction, seed)
    got = ([(c.cascade_id, c.users) for c in train], [(c.cascade_id, c.users) for c in test])
    assert got == expected
    assert train.tokens == test.tokens == dataset.tokens


def _planted_text(sources, pool, per_source, length, seed):
    """`per_source` cascades per source, each of `length` users drawn from
    the source's own pool of `pool` users."""
    rng = np.random.default_rng(seed)
    lines = []
    for s in range(sources):
        for k in range(per_source):
            users = rng.choice(pool, size=length, replace=False) + s * pool
            lines.append(f"s{s}-c{k}\ts{s} " + " ".join(f"u{u}" for u in users.tolist()) + "\n")
    return "".join(lines)


# Bounds fixed before the columnar parse was written, in bytes per token of
# the file; the line-by-line parse with a `Cascade` per line measured
# 178 / 243 (wide) and 36.5 / 65 (narrow).
@pytest.mark.parametrize("shape, live_bound, peak_bound", [
    ((40, 500, 50, 5), 120, 160),
    ((20, 100, 50, 20), 30, 50),
], ids=["wide", "narrow"])
def test_parse_memory_per_token(traced, shape, live_bound, peak_bound):
    """What a parsed dataset holds, and the parse's peak, per file token.
    Wide: most users appear once, so the token table dominates; narrow:
    few distinct users, so the per-token columns do."""
    text = _planted_text(*shape, seed=1)
    sources, _, per_source, length = shape
    tokens = sources * per_source * (length + 1)
    dataset, live, peak = traced(parse_cascade_file, text)
    assert dataset.num_cascades == sources * per_source
    assert live <= live_bound * tokens
    assert peak <= peak_bound * tokens
