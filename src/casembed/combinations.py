"""User-order combinations and their critical penalty margins.

A combination (source, earlier, later) records that `earlier` was infected
before `later` in a cascade started by `source`. Each occurrence carries the
margin

    log_mu(1 + (t_later - t_earlier) / (1 + t_earlier))

where t_* are 1-based infection orders; merging the same combination across
cascades averages its margins. In dominant mode, when both orientations of a
pair occur under one source only the strictly more frequent one is kept, and
a tie drops both (keeping both would impose contradictory constraints).

A CombinationTable keeps its entries as parallel numpy columns, which
`build_table` fills directly; `Combination` views are made only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

import numpy as np

from casembed.data import Cascade, CascadeDataset

__all__ = [
    "MODES",
    "Combination",
    "CombinationTable",
    "ENTRY",
    "critical_margin",
    "extract_triples",
    "build_table",
    "dump_table_tsv",
]

MODES = ("full", "dominant")

Key = tuple[int, int, int]
ENTRY = np.dtype(
    [("source", "i8"), ("earlier", "i8"), ("later", "i8"), ("count", "i8"), ("avg_margin", "f8")]
)


def critical_margin(t_earlier: int, t_later: int, mu: float = 2.0) -> float:
    """Penalty margin of an ordered pair with infection orders t_earlier < t_later."""
    if mu <= 1.0:
        raise ValueError(f"mu must exceed 1, got {mu}")
    if t_earlier < 1:
        raise ValueError(f"infection orders are 1-based, got t_earlier={t_earlier}")
    if t_later <= t_earlier:
        raise ValueError(
            f"t_later must exceed t_earlier, got t_earlier={t_earlier}, t_later={t_later}"
        )
    return math.log1p((t_later - t_earlier) / (1.0 + t_earlier)) / math.log(mu)


@dataclass(frozen=True)
class Combination:
    """Merged occurrence record of one (source, earlier, later) triple."""

    source: int
    earlier: int
    later: int
    count: int
    avg_margin: float

    def __post_init__(self):
        if self.earlier == self.later or self.source in (self.earlier, self.later):
            raise ValueError(
                f"combination users must be distinct, got "
                f"({self.source}, {self.earlier}, {self.later})"
            )
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if not self.avg_margin > 0:
            raise ValueError(f"avg_margin must be positive, got {self.avg_margin}")

    @property
    def key(self) -> Key:
        return (self.source, self.earlier, self.later)


class CombinationTable:
    """Combinations as parallel read-only columns, in insertion order.

    `entries` are `Combination`s or one array of dtype `ENTRY`; each field
    becomes a column (`source`, `earlier`, ...). Iteration and `get` hand out
    `Combination` views; lookups use a key index built on first use.
    `tokens` is carried over from the originating dataset so models built
    from the table can resolve user tokens later.
    """

    def __init__(
        self,
        entries: Iterable[Combination] | np.ndarray,
        mode: str,
        tokens: Iterable[str] | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not isinstance(entries, np.ndarray):
            entries = [(c.source, c.earlier, c.later, c.count, c.avg_margin) for c in entries]
        rows = np.asarray(entries, dtype=ENTRY)
        columns = [rows[name].copy() for name in ENTRY.names]
        for column in columns:
            column.flags.writeable = False
        self.source, self.earlier, self.later, self.count, self.avg_margin = columns
        self._columns = columns
        self.mode = mode
        self.tokens: tuple[str, ...] | None = None if tokens is None else tuple(tokens)
        bad = (self.earlier == self.later) | (self.source == self.earlier)
        bad |= (self.source == self.later) | (self.count < 1) | ~(self.avg_margin > 0)
        if bad.any():
            Combination(*rows[np.argmax(bad)].item())  # raises, naming the broken invariant
        order = np.lexsort(columns[2::-1])  # by source, then earlier, then later
        repeat = (np.diff(np.stack(columns[:3])[:, order]) == 0).all(axis=0)
        if repeat.any():
            raise ValueError(f"combination {rows[order[1:][repeat][0]].item()[:3]} occurs twice")

    @cached_property
    def _rows(self) -> dict[Key, int]:
        return {key: n for n, key in enumerate(zip(*(c.tolist() for c in self._columns[:3])))}

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self) -> Iterator[Combination]:
        return map(Combination, *(c.tolist() for c in self._columns))

    def __contains__(self, key: Key) -> bool:
        return key in self._rows

    def get(self, source: int, earlier: int, later: int) -> Combination | None:
        n = self._rows.get((source, earlier, later))
        return None if n is None else Combination(*(c[n].item() for c in self._columns))

    def keys(self):
        return self._rows.keys()


def extract_triples(
    cascade: Cascade, mu: float = 2.0
) -> list[tuple[int, int, int, float]]:
    """All ordered infected pairs of one cascade with their margins.

    Emits C(n, 2) tuples (source, earlier, later, margin) for n infected
    users; the source never appears as earlier or later.
    """
    infected = cascade.infected
    source = cascade.source
    out = []
    for i in range(len(infected)):
        for j in range(i + 1, len(infected)):
            out.append(
                (source, infected[i], infected[j], critical_margin(i + 1, j + 1, mu))
            )
    return out


def _unique_first(key: np.ndarray):
    """Distinct keys, each one's first position, the inverse and the counts.

    Equals ``np.unique(key, return_index=True, return_inverse=True,
    return_counts=True)`` for a 1-D integer array, output for output, but
    sorts once without the stable sort that return_index makes np.unique
    use: a key's first position is the least one in its run of the sort.
    """
    order = np.argsort(key)
    ordered = key[order]
    run_start = np.empty(len(key), dtype=bool)
    run_start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.cumsum(run_start) - 1
    counts = np.diff(starts, append=len(key))
    return ordered[starts], np.minimum.reduceat(order, starts), inverse, counts


def build_table(
    dataset: CascadeDataset, mu: float = 2.0, mode: str = "dominant"
) -> CombinationTable:
    """Aggregate triples over a dataset, merging duplicate keys.

    A merged entry's count is the number of contributing cascades and its
    avg_margin the arithmetic mean of the per-cascade margins. Merging
    happens before dominance filtering, so dominance compares merged counts.
    Entries keep the order in which their keys first occur, and margins are
    summed in cascade order.
    """
    tokens = getattr(dataset, "tokens", None)
    by_length: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    users: list[int] = []
    starts, earlier_parts, later_parts, margin_parts = [], [], [], []
    for cascade in dataset:
        length = cascade.num_infected
        if length not in by_length:
            # earlier and later 0-based positions of every ordered pair, with margins
            earlier, later = np.triu_indices(length, 1)
            pairs = zip(earlier.tolist(), later.tolist())
            margins = [critical_margin(i + 1, j + 1, mu) for i, j in pairs]
            by_length[length] = earlier, later, np.array(margins, dtype=np.float64)
        earlier, later, margins = by_length[length]
        starts.append(len(users))
        users.extend(cascade.users)
        earlier_parts.append(earlier)
        later_parts.append(later)
        margin_parts.append(margins)
    margins = np.concatenate(margin_parts) if margin_parts else np.empty(0)
    if not len(margins):
        return CombinationTable([], mode=mode, tokens=tokens)
    flat = np.asarray(users, dtype=np.int64)
    starts = np.asarray(starts)
    # Number each position's (source, user) pair densely, so that a triple's
    # key (pair of source and earlier user, later user) fits in int64.
    base = int(flat.max()) + 1
    cascade_source = np.repeat(flat[starts], np.diff(starts, append=len(flat)))
    _, pair = np.unique(cascade_source * base + flat, return_inverse=True)
    # position in `flat` of each triple's source; its infected users follow
    start = np.repeat(starts, [len(m) for m in margin_parts])
    at_earlier = start + 1 + np.concatenate(earlier_parts)
    at_later = start + 1 + np.concatenate(later_parts)
    earlier, later = flat[at_earlier], flat[at_later]
    key = pair[at_earlier] * base + later
    keys, first, inverse, counts = _unique_first(key)  # `first`: each key's first occurrence
    # bincount adds in input order, which is the order a running sum per
    # key over the cascades uses, so the means are reproducible bit for bit.
    means = np.bincount(inverse, weights=margins) / counts
    keep = np.ones(len(keys), dtype=bool)
    if mode == "dominant":
        opposite = pair[at_later[first]] * base + earlier[first]
        at = np.minimum(np.searchsorted(keys, opposite), len(keys) - 1)
        opposite_counts = np.where(keys[at] == opposite, counts[at], 0)
        keep = opposite_counts < counts  # outnumbered, or tied: no dominant orientation
    kept = np.flatnonzero(keep)
    kept = kept[np.argsort(first[kept])]
    rows = first[kept]
    columns = [flat[start[rows]], earlier[rows], later[rows], counts[kept], means[kept]]
    return CombinationTable(np.rec.fromarrays(columns, dtype=ENTRY), mode=mode, tokens=tokens)


def dump_table_tsv(table: CombinationTable, stream: IO[str]) -> None:
    """Write the table as TSV: source, earlier, later, count, avg_margin (6 dp)."""
    stream.write("source\tearlier\tlater\tcount\tavg_margin\n")
    for combo in table:
        stream.write(
            f"{combo.source}\t{combo.earlier}\t{combo.later}"
            f"\t{combo.count}\t{combo.avg_margin:.6f}\n"
        )
