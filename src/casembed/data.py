"""Cascade corpus parsing, validation, and splitting.

A cascade file is line-oriented UTF-8 text; LF, CRLF and CR end a line, as
in a text-mode file, and no other character does. Blank lines and lines
whose first character is '#' are skipped. Every other line is

    <cascade_id><TAB><user tokens separated by spaces>

with the users listed in contamination order: the first token is the source,
the remaining tokens are the infected users. Tokens are opaque strings and
are interned to dense integer ids in first-appearance order; the original
tokens are kept so datasets round-trip through serialization.

A `CascadeDataset` is columnar: one flat int64 array of every cascade's
users, an offsets array, the cascade ids and the token table. Parsing fills
the columns in one pass over the lines and finds users repeated within a
cascade with one sort; splitting gathers columns by index; serializing
renders from the columns. `Cascade` objects are views, made only when a
caller iterates or indexes a dataset.
"""

from __future__ import annotations

import operator
import os
import stat
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Cascade",
    "CascadeDataset",
    "CascadeError",
    "CascadeParseError",
    "CascadeValidationError",
    "parse_cascade_file",
    "serialize_cascades",
    "load_cascade_file",
    "save_cascade_file",
    "split_dataset",
]


class CascadeError(ValueError):
    """Base class for cascade corpus errors."""


class CascadeParseError(CascadeError):
    """Raised for structurally malformed input lines."""


class CascadeValidationError(CascadeError):
    """Raised when well-formed input violates a cascade invariant."""


@dataclass(frozen=True)
class Cascade:
    """One diffusion trace: a source user plus infected users in order.

    users[0] is the source; users[1:] are the infected users, whose 1-based
    positions define their infection orders.
    """

    cascade_id: str
    users: tuple[int, ...]

    def __post_init__(self):
        if len(self.users) < 2:
            raise CascadeValidationError(
                f"cascade {self.cascade_id!r} needs a source and at least one infected user"
            )
        if len(set(self.users)) != len(self.users):
            raise CascadeValidationError(
                f"cascade {self.cascade_id!r} contains a duplicate user"
            )

    @property
    def source(self) -> int:
        return self.users[0]

    @property
    def infected(self) -> tuple[int, ...]:
        return self.users[1:]

    @property
    def num_infected(self) -> int:
        return len(self.users) - 1

    def infection_order(self, user: int) -> int | None:
        """1-based rank of `user` among the infected users.

        Returns None for the source and for users not in the cascade.
        """
        try:
            pos = self.users.index(user)
        except ValueError:
            return None
        return pos if pos > 0 else None


class CascadeDataset:
    """Immutable cascade collection stored as columns, sharing one token table.

    Cascade k is ``cascade_ids[k]`` with users
    ``flat_users[offsets[k]:offsets[k + 1]]``, its source first: one int64
    array for every cascade's users and one offsets array, both read-only.
    ``tokens[i]`` is the original string token of interned user id ``i``;
    the table is one tuple, and its `{token: id}` index is built only on the
    first `user_id` call, so a dataset that is parsed, split and scored
    never builds it. Iteration and indexing hand out `Cascade` views made
    on demand. Splits keep their parent's table, so ids stay stable across
    train/test.
    """

    def __init__(self, cascades: Iterable[Cascade], tokens: Sequence[str]):
        cascades = tuple(cascades)
        tokens = tuple(tokens)
        if len(set(tokens)) != len(tokens):
            raise CascadeValidationError("token table contains duplicate tokens")
        lengths = [len(c.users) for c in cascades]
        flat = np.fromiter(chain.from_iterable(c.users for c in cascades), np.int64,
                           sum(lengths))
        low, high = (int(flat.min()), int(flat.max())) if len(flat) else (0, -1)
        if low < 0 or high >= len(tokens):
            bad = low if low < 0 else high
            raise CascadeValidationError(f"user id {bad} has no token table entry")
        self._assign(tuple(c.cascade_id for c in cascades), flat, _offsets(lengths), tokens)

    def _assign(self, cascade_ids, flat, offsets, tokens) -> None:
        self._cascade_ids: tuple[str, ...] = cascade_ids
        self._flat, self._offsets = _freeze(flat, offsets)
        self._tokens: tuple[str, ...] = tokens

    @classmethod
    def _from_columns(cls, cascade_ids, flat, offsets, tokens) -> CascadeDataset:
        """A dataset over columns known to be valid: every cascade has a
        source and an infected user and no repeated user, every id indexes
        `tokens`, and the tokens are distinct. The columns become the
        dataset's; `tokens` may be shared, as nothing changes it."""
        dataset = cls.__new__(cls)
        dataset._assign(cascade_ids, flat, offsets, tokens)
        return dataset

    @classmethod
    def from_token_rows(
        cls, rows: Iterable[tuple[str, Sequence[str]]]
    ) -> "CascadeDataset":
        """Build a dataset from (cascade_id, token sequence) rows, interning
        tokens in first-appearance order."""
        ids: dict[str, int] = {}
        cascades = [
            Cascade(cascade_id, tuple([ids.setdefault(tok, len(ids)) for tok in row]))
            for cascade_id, row in rows
        ]
        return cls(cascades, list(ids))

    @property
    def cascade_ids(self) -> tuple[str, ...]:
        return self._cascade_ids

    @property
    def flat_users(self) -> np.ndarray:
        """Every cascade's users, cascade after cascade (read-only int64)."""
        return self._flat

    @property
    def offsets(self) -> np.ndarray:
        """Start of each cascade in `flat_users`, then its length (read-only
        int64, one longer than the dataset)."""
        return self._offsets

    @property
    def cascades(self) -> tuple[Cascade, ...]:
        return tuple(self)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @cached_property
    def users(self) -> frozenset[int]:
        """Union of all cascade members."""
        return frozenset(self._flat.tolist())

    @property
    def num_cascades(self) -> int:
        return len(self._cascade_ids)

    @property
    def num_users(self) -> int:
        return len(self.users)

    def token(self, user: int) -> str:
        return self._tokens[user]

    @cached_property
    def _token_ids(self) -> dict[str, int]:
        """The `{token: id}` index of the token table, built on the first
        `user_id` call."""
        return {tok: i for i, tok in enumerate(self._tokens)}

    def user_id(self, token: str) -> int | None:
        return self._token_ids.get(token)

    def __len__(self) -> int:
        return len(self._cascade_ids)

    def __iter__(self) -> Iterator[Cascade]:
        flat = self._flat.tolist()
        bounds = self._offsets.tolist()
        for k, cascade_id in enumerate(self._cascade_ids):
            yield Cascade(cascade_id, tuple(flat[bounds[k]:bounds[k + 1]]))

    def __getitem__(self, index: int) -> Cascade:
        k = range(len(self._cascade_ids))[operator.index(index)]
        users = self._flat[self._offsets[k]:self._offsets[k + 1]].tolist()
        return Cascade(self._cascade_ids[k], tuple(users))

    def _take(self, index: np.ndarray) -> CascadeDataset:
        """The cascades at ascending positions `index`, gathered by array
        indexing, with this dataset's token table."""
        starts = self._offsets[index]
        lengths = self._offsets[index + 1] - starts
        offsets = _offsets(lengths)
        gather = np.repeat(starts - offsets[:-1], lengths)
        gather += np.arange(offsets[-1])
        cascade_ids = tuple(map(self._cascade_ids.__getitem__, index.tolist()))
        return CascadeDataset._from_columns(cascade_ids, self._flat[gather], offsets,
                                            self._tokens)


def _freeze(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Make each column read-only, in place, and return them."""
    for column in columns:
        column.flags.writeable = False
    return columns


def _lines(text: str) -> list[str]:
    """The lines of `text` as a text-mode file reads them: LF, CRLF and CR
    end a line, and no other character does (str.splitlines() also breaks
    at U+001C, U+0085, U+2028 and others). A final line break leaves an
    empty last line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _offsets(lengths) -> np.ndarray:
    """Offsets of consecutive runs of the given lengths: 0, then the running sums."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _first_repeat(flat: np.ndarray, offsets: np.ndarray, num_tokens: int) -> int | None:
    """Index of the first cascade that lists a user twice, or None.

    One sort of a (cascade, user) key per position; the key is below N²
    for N positions, so it fits int64 for any N that fits in memory.
    """
    key = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64) * num_tokens,
                    np.diff(offsets))
    key += flat
    key.sort()
    repeat = np.flatnonzero(key[1:] == key[:-1])
    # keys order by cascade first, so the first repeat is in the first bad cascade
    return int(key[repeat[0]] // num_tokens) if len(repeat) else None


def parse_cascade_file(text: str) -> CascadeDataset:
    """Parse cascade text into a dataset.

    One pass over the lines fills the columns and interns tokens in
    first-appearance order, through a dict dropped on return: the dataset
    keeps the tokens as a tuple. One sort of (cascade, user) keys finds a
    user listed twice in a cascade. Raises CascadeParseError for lines with
    fewer than two user tokens or a missing tab, and CascadeValidationError
    for a duplicate user within one line, naming the first token that
    repeats an earlier one; both name the line number, and the first bad
    line in the text is the one reported.
    """
    ids: dict[str, int] = {}
    cascade_ids: list[str] = []
    linenos = array("q")
    lengths = array("q")
    users = array("q")
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cascade_id, tab, rest = line.partition("\t")
        user_tokens = rest.split()
        if not tab or not cascade_id.strip() or len(user_tokens) < 2:
            # a repeat on an earlier line is the first error
            _check_repeats(ids, cascade_ids, linenos, users, lengths)
            raise CascadeParseError(
                f"line {lineno}: expected '<cascade_id><TAB><source> <user> [...]',"
                f" got {line!r}"
            )
        cascade_ids.append(cascade_id)
        linenos.append(lineno)
        lengths.append(len(user_tokens))
        users.extend([ids.setdefault(tok, len(ids)) for tok in user_tokens])
    flat, offsets = _check_repeats(ids, cascade_ids, linenos, users, lengths)
    return CascadeDataset._from_columns(tuple(cascade_ids), flat, offsets, tuple(ids))


def _check_repeats(ids, cascade_ids, linenos, users, lengths):
    """The parse's flat users and offsets; raises for the first cascade that
    lists a user twice, naming its line and first repeated token."""
    flat = np.frombuffer(users, dtype=np.int64) if len(users) else np.empty(0, np.int64)
    offsets = _offsets(lengths)
    k = _first_repeat(flat, offsets, len(ids))
    if k is not None:
        tokens = list(ids)
        seen: set[str] = set()
        row = [tokens[u] for u in flat[offsets[k]:offsets[k + 1]].tolist()]
        tok = next(tok for tok in row if tok in seen or seen.add(tok))
        raise CascadeValidationError(
            f"line {linenos[k]}: duplicate user {tok!r} in cascade {cascade_ids[k]!r}"
        )
    return flat, offsets


def _check_cascade_ids(cascade_ids: Iterable[str]) -> None:
    """Raise CascadeValidationError for the first id a line of text cannot carry."""
    for cid in cascade_ids:
        if not cid.strip() or cid.startswith("#") or "\t" in cid or len(_lines(cid)) > 1:
            raise CascadeValidationError(
                f"cascade id {cid!r} is blank, starts with '#' or holds a tab or line break"
            )


def serialize_cascades(dataset: CascadeDataset) -> str:
    """Render a dataset back to cascade file text (parse round-trips).

    Raises CascadeValidationError, naming the value, for what the text
    cannot carry: a cascade id that is blank, holds a tab or a line break,
    or starts with '#', and a token that is empty or holds whitespace.
    """
    tokens = dataset.tokens
    if " ".join(tokens).split() != list(tokens):
        bad = next(tok for tok in tokens if tok.split() != [tok])
        raise CascadeValidationError(f"token {bad!r} is empty or holds whitespace")
    _check_cascade_ids(dataset.cascade_ids)
    words = list(map(tokens.__getitem__, dataset.flat_users.tolist()))
    bounds = dataset.offsets.tolist()
    return "".join(
        f"{cid}\t{' '.join(words[bounds[k]:bounds[k + 1]])}\n"
        for k, cid in enumerate(dataset.cascade_ids)
    )


def load_cascade_file(path) -> CascadeDataset:
    """Parse the cascade file at `path`, read once and decoded as UTF-8.

    A byte sequence that is not UTF-8 raises CascadeParseError naming its
    line, unless a complete line before it holds the first error.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_cascade_file(data.decode("utf-8"))
    except UnicodeDecodeError as exc:  # one decode of the whole file: `start` is a file offset
        head = data[:exc.start].decode("utf-8")
    lines = _lines(head)  # the last is the bad line, up to its bad byte
    parse_cascade_file(head[:len(head) - len(lines[-1])])  # an earlier line's error comes first
    raise CascadeParseError(f"line {len(lines)}: not valid UTF-8")


def _atomic_write(path, data: bytes) -> None:
    """Write `data` to `path` through a temp file in the same directory and
    an `os.replace`: readers see the old file or the new one, and a failure
    leaves the old file and no temp file behind. The new file gets the mode
    `open` would give it (0666 less the umask). A symlink is followed, so the
    link survives and its target is replaced; an existing target that is not
    a regular file (a device, a FIFO) is written in place."""
    path = os.path.realpath(path)
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "wb") as handle:
            handle.write(data)
        return
    directory, name = os.path.split(path)
    for _ in range(100):
        tmp = os.path.join(directory, f"{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # the name is taken: draw another
            continue
    else:
        raise FileExistsError(f"no free temp file name beside {path}")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_cascade_file(dataset: CascadeDataset, path) -> None:
    """Write the dataset's cascade text atomically; a dataset the text cannot
    carry raises before the file is touched."""
    _atomic_write(path, serialize_cascades(dataset).encode("utf-8"))


def split_dataset(
    dataset: CascadeDataset, test_fraction: float, seed: int
) -> tuple[CascadeDataset, CascadeDataset]:
    """Deterministically partition cascades into train and test splits.

    The test split receives round(test_fraction * S) cascades chosen by a
    seeded shuffle; both splits keep the parent token table and preserve the
    original cascade order. Raises CascadeError if either would be empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    total = dataset.num_cascades
    n_test = int(test_fraction * total + 0.5)
    if not 0 < n_test < total:
        raise CascadeError(f"test fraction {test_fraction} splits {total} cascades into"
                           f" {total - n_test} train + {n_test} test; both sides need at"
                           " least one cascade")
    order = np.random.default_rng(seed).permutation(total)
    in_test = np.zeros(total, dtype=bool)
    in_test[order[:n_test]] = True
    return dataset._take(np.flatnonzero(~in_test)), dataset._take(np.flatnonzero(in_test))
