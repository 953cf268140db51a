"""Seeded planted-corpus generator for the benchmark.

The benchmark generates its own inputs instead of calling
``casembed.synthetic`` so that a change to the program cannot change the
bytes a workload feeds it. Every source owns a disjoint pool of users with
ground-truth coordinates uniform in [-1, 1]^DIM; a cascade draws ``length``
users from its source's pool without replacement, orders them by ascending
squared distance to the source (ties by pool index), then runs one
left-to-right pass that swaps each adjacent pair with probability NOISE.

The output uses the cascade file format the CLI reads: one line per cascade,
``s<i>-c<k><TAB>s<i> u<a> u<b> ...``. Same arguments, same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Shape", "generate", "digest"]

DIM = 8  # dimension of the planted geometry
NOISE = 0.1  # probability of swapping each adjacent pair


@dataclass(frozen=True)
class Shape:
    """sources x users/source x cascades/source x length."""

    sources: int
    users_per_source: int
    cascades_per_source: int
    length: int

    def __post_init__(self):
        if min(self.sources, self.users_per_source, self.cascades_per_source) < 1:
            raise ValueError(f"shape sizes must be positive: {self}")
        if not 2 <= self.length <= self.users_per_source:
            raise ValueError(f"length must be in [2, users_per_source]: {self}")


def generate(shape: Shape, seed: int) -> bytes:
    """Cascade file bytes of one planted corpus; deterministic per seed."""
    rng = np.random.default_rng(seed)
    n, pool, per, length = (
        shape.sources,
        shape.users_per_source,
        shape.cascades_per_source,
        shape.length,
    )
    x = rng.uniform(-1.0, 1.0, size=(n, DIM))
    y = rng.uniform(-1.0, 1.0, size=(n, pool, DIM))
    d2 = np.einsum("spd,spd->sp", y - x[:, None, :], y - x[:, None, :])
    # Members: the first `length` entries of a random permutation of the pool.
    members = np.argsort(rng.random((n, per, pool)), axis=2)[:, :, :length]
    dist = np.take_along_axis(np.broadcast_to(d2[:, None, :], members.shape[:2] + (pool,)),
                              members, axis=2)
    order = np.lexsort((members, dist), axis=2)
    members = np.take_along_axis(members, order, axis=2)
    swaps = rng.random((n, per, length - 1)) < NOISE
    for p in range(length - 1):
        hit = swaps[:, :, p]
        left = members[:, :, p].copy()
        members[:, :, p] = np.where(hit, members[:, :, p + 1], left)
        members[:, :, p + 1] = np.where(hit, left, members[:, :, p + 1])
    user_ids = members + (np.arange(n) * pool)[:, None, None]
    lines = []
    for s in range(n):
        for k in range(per):
            users = " ".join(f"u{u}" for u in user_ids[s, k].tolist())
            lines.append(f"s{s}-c{k}\ts{s} {users}\n")
    return "".join(lines).encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
