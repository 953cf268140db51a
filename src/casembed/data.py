"""Cascade corpus parsing, validation, and splitting.

A cascade file is line-oriented UTF-8 text; LF, CRLF and CR end a line, as
in a text-mode file, and no other character does. Blank lines and lines
whose first character is '#' are skipped. Every other line is

    <cascade_id><TAB><user tokens separated by spaces>

with the users listed in contamination order: the first token is the source,
the remaining tokens are the infected users. Tokens are opaque strings and
are interned to dense integer ids in first-appearance order; the original
tokens are kept so datasets round-trip through serialization.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
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
    """Immutable cascade collection sharing one token table.

    ``tokens[i]`` is the original string token of interned user id ``i``.
    Splits keep their parent's table, so ids stay stable across train/test.
    """

    def __init__(self, cascades: Iterable[Cascade], tokens: Sequence[str]):
        self._cascades = tuple(cascades)
        self._tokens = tuple(tokens)
        if len(set(self._tokens)) != len(self._tokens):
            raise CascadeValidationError("token table contains duplicate tokens")
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        self._users = frozenset(u for c in self._cascades for u in c.users)
        for u in self._users:
            if not 0 <= u < len(self._tokens):
                raise CascadeValidationError(f"user id {u} has no token table entry")

    @classmethod
    def from_token_rows(
        cls, rows: Iterable[tuple[str, Sequence[str]]]
    ) -> "CascadeDataset":
        """Build a dataset from (cascade_id, token sequence) rows, interning
        tokens in first-appearance order."""
        ids: dict[str, int] = {}
        tokens: list[str] = []
        cascades: list[Cascade] = []
        for cascade_id, row in rows:
            users = []
            for tok in row:
                uid = ids.get(tok)
                if uid is None:
                    uid = len(tokens)
                    ids[tok] = uid
                    tokens.append(tok)
                users.append(uid)
            cascades.append(Cascade(cascade_id, tuple(users)))
        return cls(cascades, tokens)

    @property
    def cascades(self) -> tuple[Cascade, ...]:
        return self._cascades

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def users(self) -> frozenset[int]:
        """Union of all cascade members."""
        return self._users

    @property
    def num_cascades(self) -> int:
        return len(self._cascades)

    @property
    def num_users(self) -> int:
        return len(self._users)

    def token(self, user: int) -> str:
        return self._tokens[user]

    def user_id(self, token: str) -> int | None:
        return self._ids.get(token)

    def __len__(self) -> int:
        return len(self._cascades)

    def __iter__(self) -> Iterator[Cascade]:
        return iter(self._cascades)

    def __getitem__(self, index: int) -> Cascade:
        return self._cascades[index]


def parse_cascade_file(text: str | Iterable[str]) -> CascadeDataset:
    """Parse cascade text (a string or an iterable of lines) into a dataset.

    Raises CascadeParseError for lines with fewer than two user tokens or a
    missing tab, and CascadeValidationError for a duplicate user within one
    line; both name the offending line number.
    """
    # A string splits exactly as a text-mode file does: at LF, CRLF and CR
    # only, not at the other separators str.splitlines() also breaks on.
    lines = io.StringIO(text, newline=None) if isinstance(text, str) else text
    rows: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
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
        seen = set()
        for tok in user_tokens:
            if tok in seen:
                raise CascadeValidationError(
                    f"line {lineno}: duplicate user {tok!r} in cascade {cascade_id!r}"
                )
            seen.add(tok)
        rows.append((cascade_id, user_tokens))
    return CascadeDataset.from_token_rows(rows)


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
    for c in dataset:
        cid = c.cascade_id
        if not cid.strip() or cid.startswith("#") or "\t" in cid or "\n" in cid or "\r" in cid:
            raise CascadeValidationError(
                f"cascade id {cid!r} is blank, starts with '#' or holds a tab or line break"
            )
    return "".join(
        f"{c.cascade_id}\t{' '.join(dataset.token(u) for u in c.users)}\n"
        for c in dataset
    )


def load_cascade_file(path) -> CascadeDataset:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_cascade_file(handle)


def save_cascade_file(dataset: CascadeDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_cascades(dataset))


def split_dataset(
    dataset: CascadeDataset, test_fraction: float, seed: int
) -> tuple[CascadeDataset, CascadeDataset]:
    """Deterministically partition cascades into train and test splits.

    The test split receives round(test_fraction * S) cascades chosen by a
    seeded shuffle; both splits keep the parent token table and preserve the
    original cascade order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    total = dataset.num_cascades
    if total < 2:
        raise CascadeError("cannot split a dataset with fewer than 2 cascades")
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    n_test = int(test_fraction * total + 0.5)
    test_idx = set(map(int, order[:n_test]))
    train = CascadeDataset(
        (c for i, c in enumerate(dataset) if i not in test_idx), dataset.tokens
    )
    test = CascadeDataset(
        (c for i, c in enumerate(dataset) if i in test_idx), dataset.tokens
    )
    return train, test
