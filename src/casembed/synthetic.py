"""Planted latent worlds: synthetic corpora whose ideal orderings are known.

A planted world is its ground truth: an independent-variant model in which
each source owns a disjoint pool of users. `emit_cascades` reads the sources
and their pools from such a model, and refuses a model of another variant.
It emits cascades whose members are drawn from a source's pool through the
ground truth's heat-diffusion kernel, so nearer users are reached more
often, and ordered by their true distance, then perturbed by one
adjacent-swap pass at the `noise` it is given. Training on noiseless
emissions should therefore recover a geometry that satisfies every
extracted ordering constraint, and a model that learned it ranks a held-out
cascade's members first.
"""

from __future__ import annotations

import numpy as np

from casembed.data import CascadeDataset
from casembed.model import EmbeddingModel

__all__ = ["generate_world", "emit_cascades"]

_TIE_GAP = 1e-9
# Kernel time t of the membership draw: a user at squared distance d2 is
# weighted by exp(-d2 / (4 t)).
_KERNEL_TIME = 0.1


def generate_world(
    num_sources: int,
    users_per_source: int,
    dimension: int,
    seed: int,
) -> EmbeddingModel:
    """Sample an independent-variant ground truth with distinct distances.

    Sources get ids 0..num_sources-1 (tokens "s<i>"); each source owns a
    disjoint pool of users (tokens "u<k>"). Coordinates are uniform in
    [-1, 1]^D; a user is resampled while its squared distance to its source
    is within 1e-9 of another pool member's, so distance orderings are
    strict. Deterministic per seed.
    """
    if num_sources < 1 or users_per_source < 1:
        raise ValueError("num_sources and users_per_source must be at least 1")
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    rng = np.random.default_rng(seed)
    tokens = [f"s{i}" for i in range(num_sources)]
    tokens += [f"u{k}" for k in range(num_sources * users_per_source)]
    coords: list[np.ndarray] = []
    influence: dict[int, int] = {}
    spaces: dict[int, dict[int, int]] = {}
    for i in range(num_sources):
        x = rng.uniform(-1.0, 1.0, dimension)
        influence[i] = len(coords)
        coords.append(x)
        space: dict[int, int] = {}
        taken: list[float] = []
        for j in range(users_per_source):
            user = num_sources + i * users_per_source + j
            while True:
                y = rng.uniform(-1.0, 1.0, dimension)
                d2 = float((x - y) @ (x - y))
                if all(abs(d2 - other) >= _TIE_GAP for other in taken):
                    break
            taken.append(d2)
            space[user] = len(coords)
            coords.append(y)
        spaces[i] = space
    return EmbeddingModel(
        dimension,
        "independent",
        np.array(coords),
        influence,
        spaces=spaces,
        tokens=tuple(tokens),
    )


def emit_cascades(
    world: EmbeddingModel,
    per_source: int,
    cascade_len: int,
    seed: int,
    noise: float = 0.0,
) -> CascadeDataset:
    """Emit per_source cascades per source of an independent-variant model.

    The sources are the model's influence users that own a susceptibility
    space, in id order, and a source's pool is that space's ids, sorted.
    Each cascade draws cascade_len users of the source's pool without
    replacement, each weighted by the heat kernel exp(-d2 / (4 t)) at
    t = 0.1 (Gumbel top-L over the log kernel -d2 / (4 t); the kernel's
    normalizer is the same for every user of a source, so the draw ignores
    it). It orders them by ascending ground-truth distance, then runs one
    left-to-right pass swapping each adjacent pair independently with
    probability noise. The swap randoms are drawn regardless of the noise
    level, so cascade membership is seed-stable across noise settings.
    Deterministic per seed.
    """
    if per_source < 1:
        raise ValueError(f"per_source must be at least 1, got {per_source}")
    if cascade_len < 1:
        raise ValueError(f"cascade_len must be at least 1, got {cascade_len}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    if world.variant != "independent":
        raise ValueError(f"cascades are emitted from an independent model, not {world.variant}")
    pools = {
        source: sorted(space)
        for source in sorted(world.influence_users())
        if (space := world.space_of(source)) is not None
    }
    for pool in pools.values():
        if cascade_len > len(pool):
            raise ValueError(
                f"cascade_len {cascade_len} exceeds the per-source pool of {len(pool)}"
            )
    rng = np.random.default_rng(seed)
    rows: list[tuple[str, list[str]]] = []
    for source, pool in pools.items():
        ids = np.array(pool)
        dist = np.array([world.distance_sq(source, u) for u in pool])
        log_kernel = -dist / (4.0 * _KERNEL_TIME)
        for k in range(per_source):
            drawn = np.argsort(-(log_kernel + rng.gumbel(size=len(pool))))[:cascade_len]
            members = ids[drawn[np.argsort(dist[drawn], kind="stable")]].tolist()
            for p in range(cascade_len - 1):
                if rng.random() < noise:
                    members[p], members[p + 1] = members[p + 1], members[p]
            rows.append(
                (
                    f"{world.token(source)}-c{k}",
                    [world.token(source)] + [world.token(u) for u in members],
                )
            )
    return CascadeDataset.from_token_rows(rows)
