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
numbers distinct (a, b) rows for the whole set-up (these pairs, which
training also uses as its slots, and a model's (space, user) points) with
one `np.lexsort` and no key packed from ids, so ids may take any int64
value. A table built from entries proves its keys distinct with one sort of
a key made of two pair numbers; `build_table`'s keys are distinct by
construction, so its table skips that sort.

`build_table` reads a dataset's columns: each triple's positions come from
the cascade offsets and a catalogue of ordered pairs per cascade length,
with no loop over cascades. Triples of different sources never merge, so
it merges the sources a group at a time: runs of whole sources, in id
order, of at most `_GROUP_TRIPLES` triples each (a source holding more is
a group alone). A group's triples are merged by sorting one int64 per
triple once, in place: the triple's unordered pair key, an orientation bit
and its position, packed together. Runs of the sort give each entry's
first occurrence, count and margin sum, and the two orientations of a pair
are neighbouring runs. One sort of the N entries' first positions then
restores first-occurrence order across groups. No array is as long as
the T triples unless one group holds them all: the build's peak working
set is the returned table and two more int64 words per entry, plus about
five words per triple of the largest group and a few per cascade position.
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


def _join(point_a, point_b, point_rows, a, b) -> np.ndarray:
    """The row of each query (a[i], b[i]) among the distinct points
    (point_a[k], point_b[k]) holding rows `point_rows`, or -1 where no point
    matches. Each column is replaced by its rank among the points' values,
    so a point's key packs into one int64 whatever its ids; only the points
    are sorted, and the queries are found by binary search."""
    row = np.full(len(a), -1, dtype=np.int64)
    if not len(point_a):
        return row
    key = query = 0
    found = np.ones(len(a), dtype=bool)
    for column, asked in ((point_a, a), (point_b, b)):
        values, rank = np.unique(column, return_inverse=True)
        at = np.searchsorted(values, asked).clip(max=len(values) - 1)
        found &= values[at] == asked
        key = key * len(values) + rank
        query = query * len(values) + at
    order = np.argsort(key)
    key = key[order]
    at = np.searchsorted(key, query).clip(max=len(key) - 1)
    found &= key[at] == query
    row[found] = point_rows[order[at[found]]]
    return row


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


# Triples `build_table` merges at a time: it merges runs of whole sources of
# at most this many triples, and a source with more alone.
_GROUP_TRIPLES = 1 << 18


def _catalogue(lengths: list[int], mu: float) -> tuple[np.ndarray, ...]:
    """Every ordered pair of infected positions, with its margin, for each
    cascade length of `lengths` (ascending): (base, earlier, later, margin),
    length n's pairs starting at row base[n]."""
    sizes = [n * (n - 1) // 2 for n in lengths]
    base = np.zeros(lengths[-1] + 1, dtype=np.int64)
    base[lengths] = np.cumsum(sizes) - sizes
    catalogue = []
    for length in lengths:
        earlier, later = np.triu_indices(length, 1)
        pairs = zip(earlier.tolist(), later.tolist())
        margins = [critical_margin(i + 1, j + 1, mu) for i, j in pairs]
        catalogue.append((earlier, later, np.array(margins, dtype=np.float64)))
    return (base, *(np.concatenate(column) for column in zip(*catalogue)))


def _source_groups(cascades: np.ndarray, source: np.ndarray,
                   per_cascade: np.ndarray) -> Iterator[np.ndarray]:
    """`cascades`, ordered by their `source`, cut into runs of whole
    sources of at most `_GROUP_TRIPLES` triples each, or of one source
    holding more."""
    cut = np.flatnonzero(np.diff(source[cascades])) + 1  # where a source's cascades begin
    bounds = np.concatenate([[0], cut, [len(cascades)]])
    done = np.concatenate([[0], np.cumsum(per_cascade[cascades])])[bounds]
    i = 0
    while i + 1 < len(bounds):
        j = max(i + 1, int(np.searchsorted(done, done[i] + _GROUP_TRIPLES, "right")) - 1)
        yield cascades[bounds[i] : bounds[j]]
        i = j


def _merge_group(cascades, cascade_columns, pair, pair_count, catalogue, mode):
    """Merge the triples of `cascades`, the cascades of whole sources: per
    kept entry its key, count and margin sum, and the position of its first
    triple among all the dataset's.

    `cascade_columns` give each cascade's first position, infected count,
    triple count and first triple's position; `pair` numbers each
    position's (source, user) pair, of `pair_count`, and `catalogue` is
    `_catalogue`'s. The triples come cascade by cascade, each cascade's
    pairs in `np.triu_indices` order, and are merged by one in-place sort
    of one int64 per triple (see `_sorted_runs`): the key, the unordered
    pair of the triple's two pairs then an orientation bit, and the
    triple's position in the group. A run of equal keys is one entry, led
    by its first occurrence; the two orientations of a pair are adjacent
    runs, which is all dominance needs. Each triple-length array is freed
    once used and buffers are updated in place, so they never hold more
    than about five int64 words per triple.
    """
    starts, infected, per_cascade, triple_starts = (c[cascades] for c in cascade_columns)
    base, catalogue_earlier, catalogue_later, catalogue_margins = catalogue
    local_starts = np.cumsum(per_cascade) - per_cascade
    triples = int(local_starts[-1] + per_cascade[-1])
    # A cascade's t-th triple reads catalogue row base[n] + t, n its length.
    row = np.repeat(base[infected] - local_starts, per_cascade)
    row += np.arange(triples)
    margins = catalogue_margins.take(row)
    earlier = catalogue_earlier.take(row)
    later = catalogue_later.take(row)
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
    del run_start
    keys = ordered[run_starts]
    del ordered
    weights = margins[position]
    del margins
    first = position[run_starts]  # a run lists its positions in ascending order
    del position
    counts = np.diff(run_starts, append=triples)
    del run_starts
    run = np.repeat(np.arange(len(counts)), counts)
    # bincount adds in input order, and a run lists its margins in cascade
    # order, so each sum is the running sum over the cascades, bit for bit.
    sums = np.bincount(run, weights=weights)
    del run, weights
    if mode == "dominant":
        # the two orientations of a pair are adjacent keys differing in the low bit
        keep = np.ones(len(keys), dtype=bool)
        twin = np.flatnonzero((keys[1:] ^ keys[:-1]) == 1)
        keep[twin] = counts[twin] > counts[twin + 1]
        keep[twin + 1] = counts[twin + 1] > counts[twin]  # a tie drops both
        keys = keys[keep]  # one column at a time, each old one freed at once
        counts = counts[keep]
        sums = sums[keep]
        first = first[keep]
        del keep
    # the position of each entry's first triple among the dataset's
    first += np.repeat(triple_starts - local_starts, per_cascade)[first]
    return keys, counts, sums, first


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

    Triples of different sources never merge, so sources are merged a group
    at a time (`_merge_group`): runs of whole sources in id order of at most
    `_GROUP_TRIPLES` triples each, or one source holding more. Each group
    gives its entries' keys, counts, margin sums and first positions; one
    sort of the N first positions restores first-occurrence order across
    groups, and the keys are decoded to pairs once. The peak working set is
    the returned table and two more int64 words per entry while its columns
    are ordered, plus about five words per triple of the largest group
    while that group is merged, plus a few per cascade position: it does
    not grow with the triple count T while the largest group stays bounded.
    """
    _check_mu(mu)
    tokens = dataset.tokens
    flat, offsets = dataset.flat_users, dataset.offsets
    infected = np.diff(offsets) - 1
    per_cascade = infected * (infected - 1) // 2
    if not per_cascade.any():
        return CombinationTable([], mode=mode, tokens=tokens)
    # Number each position's (source, user) pair densely, in (source, user)
    # order, so that a triple's key fits in int64.
    starts = offsets[:-1]
    cascade_source = flat[starts]
    position_source = np.repeat(cascade_source, infected + 1)
    first, pair = _distinct_rows(position_source, flat)
    pair_source, pair_user = position_source[first], flat[first]
    del position_source, first
    # (a set: a plain np.unique would import numpy.ma, about 1 MB of start-up)
    catalogue = _catalogue(sorted(set(infected[per_cascade > 0].tolist())), mu)
    cascade_columns = (starts, infected, per_cascade, np.cumsum(per_cascade) - per_cascade)
    # the cascades holding triples, by source, each source's in cascade order
    cascades = np.flatnonzero(per_cascade)
    cascades = cascades[np.argsort(cascade_source[cascades], kind="stable")]
    pair_count = len(pair_source)
    columns = [[], [], [], []]
    for group in _source_groups(cascades, cascade_source, per_cascade):
        for column, piece in zip(columns, _merge_group(group, cascade_columns, pair,
                                                       pair_count, catalogue, mode)):
            column.append(piece)
    del pair, cascades, cascade_columns, column, piece
    # Restore first-occurrence order: one sort of the N first positions,
    # then each column is joined and gathered in that order, one at a time.
    order = _sorted_runs(np.concatenate(columns.pop()))[1]
    key, counts, means = (np.concatenate(columns.pop(0))[order] for _ in range(3))
    del order
    means /= counts  # each entry's margin sum, by its count
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
