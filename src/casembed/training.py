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
O(N + S·D) instead of O(N·D). The slot index is built once per `train` from
the table's columns with array work; model rows are looked up once per
distinct (source, user) pair, never once per combination.

Divergence raises ValueError naming the epoch. Every epoch checks the
distances it starts from, and train and run_epoch check the coordinates the
last epoch left: each squared distance must be finite and small enough for
float64 to resolve the smallest margin in a gap. Past that, a diverging run
can read every hinge as satisfied and stop as if it had converged.

Gradient accumulation runs in a fixed order over the slots, so results are
deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from casembed.combinations import MODES, Combination, CombinationTable, build_table
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

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the best-performing
    settings (dimension 75, learning rate 0.01, margin log base 2)."""

    epochs: int
    dimension: int = 75
    learning_rate: float = 0.01
    mu: float = 2.0
    sampling: str = "dominant"
    variant: str = "independent"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.mu <= 1:
            raise ValueError(f"mu must exceed 1, got {self.mu}")
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

    Built from the table's columns, in the table's row order. Slot k pairs
    influence row `slot_x[k]` with susceptibility row `slot_y[k]`;
    combination n reads the distances of slots `earlier_slot[n]` and
    `later_slot[n]`; `margins` is the table's `avg_margin` column. Slots
    are sorted by their key `slot_x * P + slot_y` for P model points, which
    fixes the order in which gradients accumulate. `rows` lists the
    influence rows of all slots, then their susceptibility rows;
    `scatter_index` holds the flat coordinate index of every (row,
    dimension) entry of `rows`. At squared distances of `distance_limit` or
    more, float64 rounding in a gap reaches the smallest margin.
    """

    slot_x: np.ndarray
    slot_y: np.ndarray
    earlier_slot: np.ndarray
    later_slot: np.ndarray
    margins: np.ndarray
    rows: np.ndarray
    scatter_index: np.ndarray
    distance_limit: float


def _pack_table(model: EmbeddingModel, table: CombinationTable) -> _PackedTable:
    # Rows are resolved once per distinct (source, user) pair; combinations
    # read their earlier users' pairs, then their later users'.
    n = len(table)
    sources, source_at = np.unique(table.source, return_inverse=True)
    users = np.concatenate([table.earlier, table.later])
    base = int(users.max(initial=0)) + 1
    pairs, pair_at = np.unique(np.tile(source_at, 2) * base + users, return_inverse=True)
    sources, influence = sources.tolist(), model._influence
    resolved = [
        (influence.get(sources[s], -1), (model.space_of(sources[s]) or {}).get(u, -1))
        for s, u in (divmod(pair, base) for pair in pairs.tolist())
    ]
    x, y = np.array(resolved, dtype=np.int64).reshape(-1, 2)[pair_at].T
    missing = ((x < 0) | (y < 0)).reshape(2, n).any(axis=0)
    if missing.any():
        i = missing.argmax()
        key = (table.source[i].item(), table.earlier[i].item(), table.later[i].item())
        raise ModelError(f"combination {key} has unallocated coordinates")
    margins = table.avg_margin
    points = np.int64(model.num_points)
    keys = x * points + y
    slots, inverse = np.unique(keys, return_inverse=True)
    slot_x, slot_y = slots // points, slots % points
    dim = model.dimension
    rows = np.concatenate([slot_x, slot_y])
    return _PackedTable(
        slot_x,
        slot_y,
        inverse[:n],
        inverse[n:],
        margins,
        rows,
        (rows[:, None] * dim + np.arange(dim)).ravel(),
        float(margins.min(initial=np.inf) / np.finfo(np.float64).eps),
    )


def _slot_distances(coords: np.ndarray, packed: _PackedTable):
    """Per-slot difference x - y and its squared length."""
    diff = coords.take(packed.slot_x, axis=0)
    diff -= coords.take(packed.slot_y, axis=0)
    return diff, np.einsum("ij,ij->i", diff, diff)


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


def _run_packed_epoch(
    model: EmbeddingModel, packed: _PackedTable, learning_rate: float, epoch: int
) -> EpochStats:
    coords = model.coords
    diff, d2 = _slot_distances(coords, packed)
    _check_divergence(d2, packed, epoch, "before")
    gaps = d2[packed.later_slot] - d2[packed.earlier_slot]
    active = np.flatnonzero(gaps < packed.margins)
    total_loss = float((packed.margins[active] - gaps[active]).sum())
    work_meter.entry_dims += gaps.size + diff.size

    if len(active):
        slots = len(d2)
        n_e = np.bincount(packed.earlier_slot[active], minlength=slots)
        n_l = np.bincount(packed.later_slot[active], minlength=slots)
        # Slot (x, y) serves n_e active combinations as the earlier distance
        # and n_l as the later one; their gradient terms sum to
        # 2·(n_e − n_l)·(x − y) on row x and the negation on row y. Row x is
        # touched once per combination, row y once per distance it serves.
        grad = (2.0 * (n_e - n_l))[:, None] * diff
        accum = np.bincount(
            packed.scatter_index,
            weights=np.concatenate([grad, -grad]).ravel(),
            minlength=coords.size,
        ).reshape(coords.shape)
        touched = np.bincount(
            packed.rows, weights=np.concatenate([n_e, n_e + n_l]), minlength=len(coords)
        )
        # untouched rows have a zero sum, so they move by exactly zero
        coords -= learning_rate * accum / np.maximum(touched, 1.0)[:, None]
    return EpochStats(epoch, total_loss, len(active))


def _check_final(model: EmbeddingModel, packed: _PackedTable, epoch: int):
    """The divergence check on the coordinates the last epoch left."""
    _check_divergence(_slot_distances(model.coords, packed)[1], packed, epoch, "after")


def run_epoch(
    model: EmbeddingModel,
    table: CombinationTable,
    learning_rate: float,
    epoch: int = 0,
) -> EpochStats:
    """One batch update in place; the stats describe the pre-update state."""
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    packed = _pack_table(model, table)
    stats = _run_packed_epoch(model, packed, learning_rate, epoch)
    _check_final(model, packed, epoch)
    return stats


class TrainHistory(list):
    """The `EpochStats` of a `train` run, in epoch order, plus the sizes of
    the fit: `combinations` table entries touching `slots` slots."""

    def __init__(self, combinations: int, slots: int):
        super().__init__()
        self.combinations = combinations
        self.slots = slots


def train(
    train_set: CascadeDataset, config: TrainConfig
) -> tuple[EmbeddingModel, TrainHistory]:
    """Fit latent coordinates to a training corpus.

    Builds the combination table per config.sampling, initializes the model
    from config.seed, and descends for up to config.epochs epochs, stopping
    early once no combination is active (further epochs would be no-ops).
    The history lists each epoch's stats and carries the table's entry count
    (`combinations`) and slot count (`slots`), so callers need not build or
    pack the table again. Deterministic for a fixed config.
    """
    table = build_table(train_set, mu=config.mu, mode=config.sampling)
    rng = np.random.default_rng(config.seed)
    model = init_model(table, config, rng)
    if len(table) == 0:
        logger.warning("no training combinations extracted; model left at its init")
        return model, TrainHistory(0, 0)
    packed = _pack_table(model, table)
    history = TrainHistory(len(table), len(packed.slot_x))
    for epoch in range(config.epochs):
        stats = _run_packed_epoch(model, packed, config.learning_rate, epoch)
        history.append(stats)
        if stats.active_count == 0:
            break
    if history:
        _check_final(model, packed, history[-1].epoch)
    return model, history
