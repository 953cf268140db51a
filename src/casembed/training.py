"""Batch gradient descent over combination tables.

Each epoch measures loss and the active set against the current coordinates,
accumulates the hinge gradients of every active combination, then moves each
touched coordinate once by the learning rate times the average of the
gradients that touched it. Loss and active count describe the state before
the update, so the first epoch's numbers characterize the random init.
Merged combinations enter once per epoch regardless of occurrence count.

A combination's gap depends on two squared distances, each between the
source's influence point and one user's point in the source's
susceptibility space. Such an (influence row, susceptibility row) pair is a
slot; a table of N combinations touches S distinct slots, and S is far
smaller than N. An epoch computes the S squared distances, gathers the N
gaps from them, counts how often each slot serves as an active earlier or
later distance, and scatters one weighted difference per slot. That costs
O(N + S·D) instead of O(N·D). The slots are the table's pair numbering
(see `CombinationTable`), which `build_table` computes while merging
triples: slot k is the table's (source, user) pair k, and each combination
reads its two slots straight from the table's `earlier_pair` and
`later_pair` columns. Once per `train`, each pair's model rows are found by
an array join against the model's point blocks (`EmbeddingModel._slot_rows`).
The table's key columns are never read, and no `{id: row}` dict is built.

An epoch builds nothing of S·D entries. It computes the S squared distances
⌈S/D⌉ slots at a time, frees the distances, gaps and active set before its
scatter, then scatters one dimension at a time: the dimension's slot
differences x − y are gathered from its column, before the column moves,
into one reused 2S weights vector, weighted, and negated for the
susceptibility rows; `np.bincount` sums them by row over the P model
points, and that dimension's step is applied to its column straight from
the sum. Beside the coordinates its working set peaks at about N + S + 3A
words while it finds the A active combinations, and at about 5S + 3P words
while it scatters: O(N + A + S + P). `train` drops its corpus once the
table is built (after counting its triples for `TrainHistory.triples`) and
its table once the table is packed, so the epochs hold only the packed
table's 3N + 2S words: three of the table's columns and the slots' rows.
The model it makes builds no `{token: id}` index, which training and saving
never read. A caller that passes the corpus without keeping a name for it,
as the `train` command does, frees it before the model is made.
`TrainHistory.stages` records each stage's seconds and the process's peak
RSS after it, for the manifest.

Divergence raises ValueError naming the epoch. Every epoch checks the
distances it starts from, and train and run_epoch check the coordinates the
last epoch left: each squared distance must be finite and small enough for
float64 to resolve the smallest margin in a gap. Past that, a diverging run
can read every hinge as satisfied and stop as if it had converged. The
check of the last coordinates also yields the loss and active count of the
model `train` returns (`TrainHistory.saved`), since every `EpochStats`
describes the state before its update.

Each coordinate sums its gradient terms in slot order, which is the table's
(source, user) order, so results are deterministic and do not depend on how
the model numbers its rows.
"""

from __future__ import annotations

import math
import numbers
import resource
import time
from dataclasses import dataclass

import numpy as np

from casembed.combinations import (
    MODES,
    Combination,
    CombinationTable,
    _check_mu,
    build_table,
)
from casembed.data import CascadeDataset
from casembed.model import VARIANTS, EmbeddingModel, ModelError, init_model

__all__ = [
    "TrainConfig",
    "EpochStats",
    "predicted_gap",
    "hinge_loss",
    "accumulate_gradients",
    "run_epoch",
    "train",
    "TrainHistory",
    "work_meter",
]


def _check_learning_rate(learning_rate: float) -> None:
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, checked when made and read-only after;
    defaults follow the best-performing settings (dimension 75, learning
    rate 0.01, margin log base 2)."""

    epochs: int
    dimension: int = 75
    learning_rate: float = 0.01
    mu: float = 2.0
    sampling: str = "dominant"
    variant: str = "independent"
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 0), ("dimension", 1), ("seed", 0)):
            value = getattr(self, name)  # a float, even a whole one, fails deep in `train`
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        _check_learning_rate(self.learning_rate)
        _check_mu(self.mu)
        if self.sampling not in MODES:
            raise ValueError(f"sampling must be one of {MODES}, got {self.sampling!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    total_loss: float
    active_count: int


class _WorkMeter:
    """Counts epoch array work, for complexity checks: one unit per
    combination plus one per slot coordinate."""

    def __init__(self):
        self.entry_dims = 0

    def reset(self):
        self.entry_dims = 0


work_meter = _WorkMeter()


def predicted_gap(model: EmbeddingModel, source: int, earlier: int, later: int) -> float:
    """Distance-squared gap d2(source, later) - d2(source, earlier)."""
    d_earlier = model.distance_sq(source, earlier)
    d_later = model.distance_sq(source, later)
    if d_earlier is None or d_later is None:
        raise ModelError(
            f"combination ({source}, {earlier}, {later}) has unallocated coordinates"
        )
    return d_later - d_earlier


def hinge_loss(avg_margin: float, gap: float) -> float:
    """max(0, margin - gap): zero exactly when the gap clears the margin."""
    return max(0.0, avg_margin - gap)


def accumulate_gradients(model: EmbeddingModel, combo: Combination):
    """Gradient triple (g_x, g_earlier, g_later) of an active combination.

    Returns None when the combination is inactive (gap >= margin). Active
    gradients are g_x = 2(y_j - y_i), g_yi = 2(y_i - x), g_yj = 2(x - y_j),
    the descent directions of the hinge term.
    """
    gap = predicted_gap(model, combo.source, combo.earlier, combo.later)
    if gap >= combo.avg_margin:
        return None
    x = model.influence_point(combo.source)
    y_i = model.susceptibility_point(combo.source, combo.earlier)
    y_j = model.susceptibility_point(combo.source, combo.later)
    return 2.0 * (y_j - y_i), 2.0 * (y_i - x), 2.0 * (x - y_j)


@dataclass(frozen=True)
class _PackedTable:
    """Combination table resolved to the slots of one model.

    Slot k is the table's pair k, so `earlier_slot`, `later_slot` and
    `margins` are the table's own `earlier_pair`, `later_pair` and
    `avg_margin` columns: combination n reads the distances of slots
    `earlier_slot[n]` and `later_slot[n]`. `rows` lists the influence rows
    of all slots, then their susceptibility rows: the epoch scatters each
    dimension's gradients through it. Slot k pairs influence row
    `slot_x[k]` with susceptibility row `slot_y[k]`, read-only views of
    the two halves of `rows`. Nothing here grows with the dimension. At
    squared distances of `distance_limit` or more, float64 rounding in a
    gap reaches the smallest margin.
    """

    earlier_slot: np.ndarray
    later_slot: np.ndarray
    margins: np.ndarray
    rows: np.ndarray
    distance_limit: float

    @property
    def slot_x(self) -> np.ndarray:
        return self.rows[: len(self.rows) // 2]

    @property
    def slot_y(self) -> np.ndarray:
        return self.rows[len(self.rows) // 2 :]


def _pack_table(model: EmbeddingModel, table: CombinationTable) -> _PackedTable:
    """Resolve the table to `model`'s slots, for any model holding its rows.

    Each of the table's pairs is a slot, its rows found by
    `EmbeddingModel._slot_rows`, which joins the pairs against the model's
    point arrays and builds no `{id: row}` view. Every valid model gives
    each pair its own (influence row, susceptibility row), so no two slots
    merge. The packed table shares the table's three N-length columns and
    adds the 2S words of `rows`; beside them it allocates O(S + P) words
    for the model's P points, all freed on return. A missing row is
    reported by the key the numbering gives.
    """
    x, y = model._slot_rows(table.pair_source, table.pair_user)
    missing = (x < 0) | (y < 0)
    if missing.any():
        i = (missing[table.earlier_pair] | missing[table.later_pair]).argmax()
        key = table._combination(i).key
        raise ModelError(f"combination {key} has unallocated coordinates")
    margins = table.avg_margin
    rows = np.concatenate([x, y])
    rows.flags.writeable = False
    return _PackedTable(
        table.earlier_pair,
        table.later_pair,
        margins,
        rows,
        float(margins.min(initial=np.inf) / np.finfo(np.float64).eps),
    )


def _slot_distances(coords: np.ndarray, packed: _PackedTable) -> np.ndarray:
    """Per-slot squared length of x - y.

    The rows of each slot are gathered, subtracted and reduced ⌈S/D⌉ slots
    at a time, so only about S words of differences are alive at once. A
    row's reduction does not depend on its neighbours, so every chunking
    gives the one-gather result bit for bit.
    """
    slot_x, slot_y, dimension = packed.slot_x, packed.slot_y, coords.shape[1]
    slots = len(slot_x)
    d2 = np.empty(slots)
    chunk = max(1, -(-slots // dimension))
    for start in range(0, slots, chunk):
        stop = start + chunk
        diff = coords.take(slot_x[start:stop], axis=0)
        diff -= coords.take(slot_y[start:stop], axis=0)
        np.einsum("ij,ij->i", diff, diff, out=d2[start:stop])
    return d2


def _check_divergence(d2: np.ndarray, packed: _PackedTable, epoch: int, when: str):
    """Raise ValueError unless every squared distance is finite and small
    enough for float64 to resolve the smallest margin in a gap.

    Past that limit the hinge test compares rounding noise: a diverging run
    can then read every combination as satisfied and stop as if converged.
    Bounded distances also keep the loss finite.
    """
    worst = d2.max(initial=0.0)
    if not worst < packed.distance_limit:
        raise ValueError(
            f"training diverged at epoch {epoch}: squared distances {when} the"
            f" update reached {worst:.3g}, where float64 no longer resolves the"
            f" smallest margin (limit {packed.distance_limit:.3g});"
            " lower the learning rate"
        )


def _hinges(d2: np.ndarray, packed: _PackedTable) -> tuple[np.ndarray, float]:
    """Indices of the combinations active at squared slot distances `d2`,
    and their total hinge loss."""
    gaps = d2[packed.later_slot]
    gaps -= d2[packed.earlier_slot]
    active = np.flatnonzero(gaps < packed.margins)
    hinges = gaps[active]
    del gaps
    np.subtract(packed.margins[active], hinges, out=hinges)  # margin − gap, per active
    return active, float(hinges.sum())


def _run_packed_epoch(
    model: EmbeddingModel, packed: _PackedTable, learning_rate: float, epoch: int
) -> EpochStats:
    coords = model.coords
    d2 = _slot_distances(coords, packed)
    _check_divergence(d2, packed, epoch, "before")
    slots = len(d2)
    work_meter.entry_dims += len(packed.margins) + slots * coords.shape[1]
    active, total_loss = _hinges(d2, packed)
    del d2
    active_count = len(active)

    if active_count:
        n_e = np.bincount(packed.earlier_slot[active], minlength=slots)
        n_l = np.bincount(packed.later_slot[active], minlength=slots)
        del active
        # Slot (x, y) serves n_e active combinations as the earlier distance
        # and n_l as the later one; their gradient terms sum to
        # 2·(n_e − n_l)·(x − y) on row x and the negation on row y. Row x is
        # touched once per combination, row y once per distance it serves.
        # One dimension at a time: bincount adds in input order, so each
        # coordinate sums its terms in slot order, as one scatter over all
        # dimensions would, and nothing of S·D entries is built for it.
        touched = np.bincount(
            packed.rows, weights=np.concatenate([n_e, n_e + n_l]), minlength=len(coords)
        )
        np.maximum(touched, 1.0, out=touched)
        scale = 2.0 * (n_e - n_l)
        del n_e, n_l
        weights = np.empty(2 * slots)
        forward, backward = weights[:slots], weights[slots:]
        for target in coords.T:  # `coords[:, d] -= x` would copy back
            # The dimension's slot differences x − y, from its column before
            # the column moves. `take` gathers from a contiguous copy of the
            # column; mode "raise" would also buffer `out`.
            target.take(packed.rows, out=weights, mode="clip")
            forward -= backward
            forward *= scale
            np.negative(forward, out=backward)
            step = np.bincount(packed.rows, weights=weights, minlength=len(coords))
            # untouched rows have a zero sum, so they move by exactly zero
            step *= learning_rate
            step /= touched
            target -= step
    return EpochStats(epoch, total_loss, active_count)


def _check_final(model: EmbeddingModel, packed: _PackedTable, epoch: int) -> EpochStats:
    """The divergence check on the coordinates epoch `epoch` left, and their
    loss and active count: the stats epoch `epoch + 1` would report."""
    d2 = _slot_distances(model.coords, packed)
    _check_divergence(d2, packed, epoch, "after")
    active, total_loss = _hinges(d2, packed)
    return EpochStats(epoch + 1, total_loss, len(active))


def run_epoch(
    model: EmbeddingModel,
    table: CombinationTable,
    learning_rate: float,
    epoch: int = 0,
) -> EpochStats:
    """One batch update in place; the stats describe the pre-update state."""
    _check_learning_rate(learning_rate)
    packed = _pack_table(model, table)
    stats = _run_packed_epoch(model, packed, learning_rate, epoch)
    _check_final(model, packed, epoch)
    return stats


class Stages(list):
    """A command's stages, in order: one `{"stage", "seconds", "maxrss_mb",
    "rss_mb"}` record per stage, for its manifest. Each stage runs from the
    previous `lap` (or the record's creation) to its own; `seconds` is its
    wall time (`time.perf_counter`), `maxrss_mb` the process's peak RSS so
    far (`ru_maxrss`) when it ended, so the stage that raised the peak is the
    one whose record shows it first, and `rss_mb` its resident size then
    (`/proc/self/statm`; None where that file is missing), so the stage
    that still holds memory shows too."""

    def __init__(self):
        super().__init__()
        self._since = time.perf_counter()

    def lap(self, name: str, result=None):
        """Record stage `name` as ending now; returns `result`, unkept."""
        now = time.perf_counter()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        self.append({"stage": name, "seconds": now - self._since, "maxrss_mb": peak,
                     "rss_mb": _resident_mb()})
        self._since = now
        return result


def _resident_mb() -> float | None:
    """The process's resident size in MiB, or None where /proc/self/statm
    is missing or unreadable."""
    try:
        with open("/proc/self/statm", "rb", buffering=0) as statm:
            fields = statm.read().split()
    except OSError:
        return None
    return int(fields[1]) * resource.getpagesize() / 2**20


class TrainHistory(list):
    """The `EpochStats` of a `train` run, in epoch order, plus the sizes of
    the fit: `triples` (earlier, later) pairs over the corpus's cascades,
    merged into `combinations` table entries touching `slots` slots, and
    the fit's `stages`. `saved` holds the loss and active count of the model
    `train` returns, as the next epoch would report them; it is None when
    no epoch ran."""

    def __init__(self, combinations: int, slots: int, triples: int, stages: Stages):
        super().__init__()
        self.combinations = combinations
        self.slots = slots
        self.triples = triples
        self.stages = stages
        self.saved: EpochStats | None = None

    @property
    def stopped(self) -> str:
        """Why the fit ended: "no_active" when its last epoch found no
        active combination, else "epoch_limit"."""
        return "no_active" if self and self[-1].active_count == 0 else "epoch_limit"


def train(
    train_set: CascadeDataset, config: TrainConfig
) -> tuple[EmbeddingModel, TrainHistory]:
    """Fit latent coordinates to a training corpus.

    Builds the combination table per config.sampling, initializes the model
    from config.seed, and descends for up to config.epochs epochs, stopping
    early once no combination is active (further epochs would be no-ops).
    The history lists each epoch's stats and carries the corpus's triple
    count (`triples`), the table's entry count (`combinations`) and slot
    count (`slots`), so callers need not build or pack the table again, the
    returned model's own stats (`saved`) and the time and peak RSS of each
    stage (`stages`: build, init, pack, epochs, final_check). Deterministic
    for a fixed config. Raises ValueError, before any model is made, when
    the table has no entries.

    `train` holds the corpus only until its table is built, and the table
    only until it is packed; a caller that passes the corpus without keeping
    it frees it before the model is made.
    """
    stages = Stages()
    table = build_table(train_set, mu=config.mu, mode=config.sampling)
    infected = np.diff(train_set.offsets) - 1
    triples = int((infected * (infected - 1) // 2).sum())
    del train_set, infected
    stages.lap("build")
    if len(table) == 0:
        raise ValueError("the training set yields no training combinations: every cascade"
                         " has fewer than two infected users, or dominant sampling dropped"
                         " every pair (each seen as often in both orders)")
    model = stages.lap("init", init_model(table, config, np.random.default_rng(config.seed)))
    packed = _pack_table(model, table)
    history = TrainHistory(len(table), len(table.pair_source), triples, stages)
    del table  # the epochs read only `packed`, which keeps three of its columns
    stages.lap("pack")
    for epoch in range(config.epochs):
        stats = _run_packed_epoch(model, packed, config.learning_rate, epoch)
        history.append(stats)
        if stats.active_count == 0:
            break
    stages.lap("epochs")
    if history:
        history.saved = _check_final(model, packed, history[-1].epoch)
    stages.lap("final_check")
    return model, history
