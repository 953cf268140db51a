"""User-order combinations and their critical penalty margins.

A combination (source, earlier, later) records that `earlier` was infected
before `later` in a cascade started by `source`. Each occurrence carries the
margin

    log_mu(1 + (t_later - t_earlier) / (1 + t_earlier))

where t_* are 1-based infection orders; merging the same combination across
cascades averages its margins. In dominant mode, when both orientations of a
pair occur under one source only the strictly more frequent one is kept, and
a tie drops both (keeping both would impose contradictory constraints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from casembed.data import Cascade, CascadeDataset

__all__ = [
    "MODES",
    "Combination",
    "CombinationTable",
    "critical_margin",
    "extract_triples",
    "build_table",
    "dump_table_tsv",
]

MODES = ("full", "dominant")

Key = tuple[int, int, int]


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
        if self.avg_margin <= 0:
            raise ValueError(f"avg_margin must be positive, got {self.avg_margin}")

    @property
    def key(self) -> Key:
        return (self.source, self.earlier, self.later)


class CombinationTable:
    """Insertion-ordered map of (source, earlier, later) -> Combination.

    `tokens` is carried over from the originating dataset so models built
    from the table can resolve user tokens later.
    """

    def __init__(
        self,
        entries: Iterable[Combination],
        mode: str,
        tokens: Iterable[str] | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self._entries: dict[Key, Combination] = {c.key: c for c in entries}
        self.mode = mode
        self.tokens: tuple[str, ...] | None = (
            tuple(tokens) if tokens is not None else None
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Combination]:
        return iter(self._entries.values())

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def get(self, source: int, earlier: int, later: int) -> Combination | None:
        return self._entries.get((source, earlier, later))

    def keys(self):
        return self._entries.keys()


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


def _position_pairs(length: int, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earlier and later 0-based positions of every ordered pair among
    `length` infected users, earlier position major, with the pairs'
    margins."""
    earlier, later = np.triu_indices(length, 1)
    margins = np.array(
        [critical_margin(i + 1, j + 1, mu) for i, j in zip(earlier.tolist(), later.tolist())],
        dtype=np.float64,
    )
    return earlier, later, margins


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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tokens = getattr(dataset, "tokens", None)
    by_length: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    users: list[int] = []
    starts, earlier_parts, later_parts, margin_parts = [], [], [], []
    for cascade in dataset:
        length = cascade.num_infected
        if length not in by_length:
            by_length[length] = _position_pairs(length, mu)
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
    # with return_index, np.unique sorts stably: `first` is each key's first occurrence
    keys, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
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
    entries = [
        Combination(source, earlier_user, later_user, count=count, avg_margin=mean)
        for source, earlier_user, later_user, count, mean in zip(
            flat[start[rows]].tolist(),
            earlier[rows].tolist(),
            later[rows].tolist(),
            counts[kept].tolist(),
            means[kept].tolist(),
        )
    ]
    return CombinationTable(entries, mode=mode, tokens=tokens)


def dump_table_tsv(table: CombinationTable, stream: IO[str]) -> None:
    """Write the table as TSV: source, earlier, later, count, avg_margin (6 dp)."""
    stream.write("source\tearlier\tlater\tcount\tavg_margin\n")
    for combo in table:
        stream.write(
            f"{combo.source}\t{combo.earlier}\t{combo.later}"
            f"\t{combo.count}\t{combo.avg_margin:.6f}\n"
        )
