"""User-order combinations and their critical penalty margins.

A combination (source, earlier, later) records that `earlier` was infected
before `later` in a cascade started by `source`. Each occurrence carries the
margin

    log_mu(1 + (t_later - t_earlier) / (1 + t_earlier))

where t_* are 1-based infection orders; merging the same combination across
cascades averages its margins. In dominant mode, when both orientations of a
pair occur under one source only the strictly more frequent one is kept, and
a tie drops both (keeping both would impose contradictory constraints).

A CombinationTable stores a numbering of the distinct (source, user) pairs
its combinations read, each a point of a source's susceptibility space, and
per combination its two pairs, count and margin; key columns and
`Combination` views are read off the numbering on demand. `_distinct_rows`
numbers distinct (a, b) rows for the whole set-up (these pairs, a model's
(space, user) points, the packed slots) with one `np.lexsort` and no key
packed from ids, so ids may take any int64 value. A table built from
entries proves its keys distinct with one sort of a key made of two pair
numbers; `build_table`'s keys are distinct by construction, so its table
skips that sort.

`build_table` reads a dataset's columns: each triple's positions come from
the cascade offsets and a catalogue of ordered pairs per cascade length,
with no loop over cascades. It merges the T triples by sorting one int64
per triple once, in place: the triple's unordered pair key, an orientation
bit and its position, packed together. Runs of the sort give each entry's
first occurrence, count and margin sum; the two orientations of a pair
are neighbouring runs; and a scan over the T positions restores
first-occurrence order. Nothing else of length T is sorted or searched,
and the build's peak working set, the returned table included, is at most
about seven int64 words per triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

import numpy as np

from casembed.data import Cascade, CascadeDataset, _freeze

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


def _check_mu(mu: float) -> None:
    """The margin's log base must be a finite number above 1: log_mu of a
    NaN or infinite base gives NaN or zero margins."""
    if not (math.isfinite(mu) and mu > 1.0):
        raise ValueError(f"mu must be finite and exceed 1, got {mu}")


def critical_margin(t_earlier: int, t_later: int, mu: float = 2.0) -> float:
    """Penalty margin of an ordered pair with infection orders t_earlier < t_later."""
    _check_mu(mu)
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


def _distinct_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct (a, b) rows densely, in (a, b) order.

    Returns `first`, the index of each distinct row's first occurrence, in
    (a, b) order, and `at`, each row's number, so that row i is
    (a[first[at[i]]], b[first[at[i]]]). One `np.lexsort`; the columns take
    any int64 values, since no key is packed from them.
    """
    order = np.lexsort((b, a))  # stable: equal rows keep their order
    a, b = a[order], b[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    new[1:] |= b[1:] != b[:-1]
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return order[new], at


class CombinationTable:
    """Combinations in insertion order, over a numbering of (source, user)
    pairs: pair p is (`pair_source[p]`, `pair_user[p]`), numbered densely in
    (source, user) order over the pairs some combination reads, and
    combination n reads pairs `earlier_pair[n]` and `later_pair[n]` and
    carries `count[n]` and `avg_margin[n]`.

    The table stores only these six read-only arrays; the key columns
    `source`, `earlier` and `later`, the key index behind `get`, `keys` and
    `in`, and iteration's `Combination` views are read off them on first
    use. `entries` are `Combination`s or one array of dtype `ENTRY`, whose
    pairs `_distinct_rows` numbers; one sort of `earlier_pair * P +
    later_pair` for P pairs then proves the keys distinct, a key below P²
    equal for two rows exactly when they share (source, earlier, later).
    `tokens`, carried over from the originating dataset, lets models built
    from the table resolve user tokens.
    """

    def __init__(
        self,
        entries: Iterable[Combination] | np.ndarray,
        mode: str,
        tokens: Iterable[str] | None = None,
    ):
        if not isinstance(entries, np.ndarray):
            entries = [(c.source, c.earlier, c.later, c.count, c.avg_margin) for c in entries]
        rows = np.asarray(entries, dtype=ENTRY)
        sources = np.concatenate([rows["source"], rows["source"]])
        users = np.concatenate([rows["earlier"], rows["later"]])
        first, at = _distinct_rows(sources, users)
        pairs = (sources[first], users[first], at[: len(rows)], at[len(rows) :])
        self._set_columns(rows["count"].copy(), rows["avg_margin"].copy(), pairs, mode, tokens)
        key = self.earlier_pair * len(first) + self.later_pair
        ordered = np.sort(key)
        repeat = ordered[1:] == ordered[:-1]
        if repeat.any():
            i = np.argmax(key == ordered[1:][repeat][0])
            raise ValueError(f"combination {self._combination(i).key} occurs twice")

    @classmethod
    def _from_build(cls, count, avg_margin, pairs, mode, tokens) -> CombinationTable:
        """The table `build_table` assembles: `count` and `avg_margin` (of
        `ENTRY`'s dtypes, owned by the table) and the pair numbering
        (pair_source, pair_user, earlier_pair, later_pair) it merged with.

        Each row is one run of the build's sort of triple keys, so keys are
        distinct by construction and the sort proving it is skipped (on
        distinct triples it would set the build's peak). The O(N) per-row
        value checks stay, at no cost to the peak.
        """
        table = cls.__new__(cls)
        table._set_columns(count, avg_margin, pairs, mode, tokens)
        return table

    def _set_columns(self, count, avg_margin, pairs, mode: str, tokens) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.count, self.avg_margin = _freeze(count, avg_margin)
        self.pair_source, self.pair_user, self.earlier_pair, self.later_pair = _freeze(*pairs)
        self.mode = mode
        self.tokens: tuple[str, ...] | None = None if tokens is None else tuple(tokens)
        own = self.pair_source == self.pair_user  # a user that is its source
        bad = (self.earlier_pair == self.later_pair) | own[self.earlier_pair]
        bad |= own[self.later_pair] | (count < 1) | ~(avg_margin > 0)
        if bad.any():
            self._combination(np.argmax(bad))  # raises, naming the broken invariant

    def _combination(self, n: int) -> Combination:
        """Row n, its key read off the pair numbering."""
        earlier, later = self.earlier_pair[n], self.later_pair[n]
        return Combination(self.pair_source[earlier].item(), self.pair_user[earlier].item(),
                           self.pair_user[later].item(), self.count[n].item(),
                           self.avg_margin[n].item())

    @cached_property
    def _keys(self) -> tuple[np.ndarray, ...]:
        """The `source`, `earlier` and `later` columns."""
        earlier, later = self.earlier_pair, self.later_pair
        return _freeze(self.pair_source[earlier], self.pair_user[earlier], self.pair_user[later])

    source = property(lambda self: self._keys[0])
    earlier = property(lambda self: self._keys[1])
    later = property(lambda self: self._keys[2])

    @cached_property
    def _rows(self) -> dict[Key, int]:
        return {key: n for n, key in enumerate(zip(*(c.tolist() for c in self._keys)))}

    def __len__(self) -> int:
        return len(self.count)

    def __iter__(self) -> Iterator[Combination]:
        return map(Combination, *(c.tolist() for c in (*self._keys, self.count, self.avg_margin)))

    def __contains__(self, key: Key) -> bool:
        return key in self._rows

    def get(self, source: int, earlier: int, later: int) -> Combination | None:
        n = self._rows.get((source, earlier, later))
        return None if n is None else self._combination(n)

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


def _sorted_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort non-negative int64 `key`, which is consumed, and return the
    sorted keys with each one's original position; equal keys keep their
    positions in ascending order, as a stable argsort would.

    Packs ``key << bits(T - 1) | position`` into the key's own buffer and
    sorts it in place, so the sort works on one int64 per key. When the
    packed key would overflow int64, falls back to a stable argsort.
    """
    n = len(key)
    shift = max(n - 1, 0).bit_length()
    if int(key.max(initial=0)).bit_length() + shift > 63:
        order = np.argsort(key, kind="stable")
        return key[order], order
    key <<= shift
    key |= np.arange(n)
    key.sort()
    ordered = key >> shift
    key &= (1 << shift) - 1
    return ordered, key


def build_table(
    dataset: CascadeDataset, mu: float = 2.0, mode: str = "dominant"
) -> CombinationTable:
    """Aggregate triples over a dataset, merging duplicate keys.

    A merged entry's count is the number of contributing cascades and its
    avg_margin the arithmetic mean of the per-cascade margins. Merging
    happens before dominance filtering, so dominance compares merged counts.
    Entries keep the order in which their keys first occur, and margins are
    summed in cascade order.

    Triples come in cascade order, each cascade's pairs in `np.triu_indices`
    order, gathered from the dataset's offsets and a catalogue of the
    ordered pairs and margins of each distinct cascade length.

    The T triples are merged by one in-place sort of one int64 per triple
    (see `_sorted_runs`): the unordered key of the triple's two (source,
    user) pairs, then an orientation bit, then the triple's position. A run
    of equal keys is one entry, led by its first occurrence; the two
    orientations of a pair are adjacent runs, which is all dominance needs;
    and a mark-and-scan over the T positions restores first-occurrence
    order. Each T-length array is freed once used and buffers are updated
    in place, so at most about six T-length arrays are alive at once, and
    the peak, the returned table's four N-length columns included, stays
    under about seven int64 words per triple.
    """
    _check_mu(mu)
    tokens = dataset.tokens
    flat, offsets = dataset.flat_users, dataset.offsets
    infected = np.diff(offsets) - 1
    per_cascade = infected * (infected - 1) // 2
    triples = int(per_cascade.sum())
    if not triples:
        return CombinationTable([], mode=mode, tokens=tokens)
    # Number each position's (source, user) pair densely, in (source, user)
    # order, so that a triple's key fits in int64.
    starts = offsets[:-1]
    cascade_source = np.repeat(flat[starts], infected + 1)
    first, pair = _distinct_rows(cascade_source, flat)
    pair_source, pair_user = cascade_source[first], flat[first]
    pair_count = len(first)
    del cascade_source, first
    # One catalogue of every ordered pair of infected positions, with its
    # margin, per distinct cascade length: length n's pairs start at base[n].
    # (a set: a plain np.unique would import numpy.ma, about 1 MB of start-up)
    lengths = sorted(set(infected[per_cascade > 0].tolist()))
    sizes = [n * (n - 1) // 2 for n in lengths]
    base = np.zeros(lengths[-1] + 1, dtype=np.int64)
    base[lengths] = np.cumsum(sizes) - sizes
    catalogue = []
    for length in lengths:
        earlier, later = np.triu_indices(length, 1)
        pairs = zip(earlier.tolist(), later.tolist())
        margins = [critical_margin(i + 1, j + 1, mu) for i, j in pairs]
        catalogue.append((earlier, later, np.array(margins, dtype=np.float64)))
    catalogue_earlier, catalogue_later, catalogue_margins = (
        np.concatenate(column) for column in zip(*catalogue)
    )
    # A cascade's t-th triple reads catalogue row base[n] + t, n its length.
    row = np.repeat(base[infected] - (np.cumsum(per_cascade) - per_cascade), per_cascade)
    row += np.arange(triples)
    margins = catalogue_margins[row]
    earlier = catalogue_earlier[row]
    later = catalogue_later[row]
    del row
    # each triple's earlier and later pair; a cascade's infected users follow its source
    offset = np.repeat(starts + 1, per_cascade)
    earlier += offset
    later += offset
    del offset
    earlier = pair[earlier]
    later = pair[later]
    # key: the unordered pair, then whether the earlier pair is the larger
    flipped = earlier > later
    key = np.minimum(earlier, later)
    np.maximum(earlier, later, out=later)
    del earlier
    key *= pair_count
    key += later
    del later
    key <<= 1
    key += flipped
    del flipped
    ordered, position = _sorted_runs(key)
    del key
    run_start = np.empty(triples, dtype=bool)
    run_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    run_starts = np.flatnonzero(run_start)
    run_keys = ordered[run_starts]
    del ordered
    first = position[run_starts]  # a run lists its positions in ascending order
    weights = margins[position]
    del margins, position
    run = np.cumsum(run_start, dtype=np.intp)
    run -= 1
    del run_start
    # bincount adds in input order, and a run lists its margins in cascade
    # order, so each sum is the running sum over the cascades, bit for bit.
    means = np.bincount(run, weights=weights)
    del run, weights
    counts = np.diff(run_starts, append=triples)
    del run_starts
    means /= counts
    keep = np.ones(len(run_keys), dtype=bool)
    if mode == "dominant":
        # the two orientations of a pair are adjacent keys differing in the low bit
        twin = np.flatnonzero((run_keys[1:] ^ run_keys[:-1]) == 1)
        keep[twin] = counts[twin] > counts[twin + 1]
        keep[twin + 1] = counts[twin + 1] > counts[twin]  # a tie drops both
    kept = np.flatnonzero(keep)
    del keep
    # Restore first-occurrence order: mark each kept run at its first
    # position, then scan the positions in order.
    at = first[kept]
    del first
    marked = np.zeros(triples, dtype=bool)
    marked[at] = True
    run_at = np.empty(triples, dtype=np.intp)
    run_at[at] = kept
    del at, kept
    kept = run_at[np.flatnonzero(marked)]
    del run_at, marked
    key = run_keys[kept]
    del run_keys
    counts = counts[kept]
    means = means[kept]
    del kept
    flipped = (key & 1).astype(bool)
    key >>= 1
    low, high = np.divmod(key, pair_count)
    del key
    earlier_pair = np.where(flipped, high, low)
    later_pair = np.where(flipped, low, high)
    del low, high, flipped
    # Renumber the pairs kept rows read, keeping their (source, user) order.
    used = np.zeros(pair_count, dtype=bool)
    used[earlier_pair] = True
    used[later_pair] = True
    renumber = np.cumsum(used) - 1
    earlier_pair = renumber[earlier_pair]
    later_pair = renumber[later_pair]
    pairs = (pair_source[used], pair_user[used], earlier_pair, later_pair)
    return CombinationTable._from_build(counts, means, pairs, mode, tokens)


def dump_table_tsv(table: CombinationTable, stream: IO[str]) -> None:
    """Write the table as TSV: source, earlier, later, count, avg_margin (6 dp)."""
    stream.write("source\tearlier\tlater\tcount\tavg_margin\n")
    for combo in table:
        stream.write(
            f"{combo.source}\t{combo.earlier}\t{combo.later}"
            f"\t{combo.count}\t{combo.avg_margin:.6f}\n"
        )
