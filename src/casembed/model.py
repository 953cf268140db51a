"""Latent spaces: packed coordinate storage, distance and kernel queries,
and the binary model file format.

All points live in one (P, D) float64 array; influence coordinates and
per-source susceptibility coordinates are row indices into it, each row one
point's, as the file gives every point its own coordinates. Susceptibility
storage depends on the variant:

    independent             every source owns a private susceptibility map
    shared_susceptibility   one susceptibility map serves every source
    single_space            susceptibility and influence share one map

In memory a model keeps its point blocks in one list, in file order: the
influence block, then each per-source space or the shared space. A block is
a pair of arrays, user ids and their coordinate rows, in block order: the
order the file lists the block's points. Which block serves a source is
settled when the model is assembled: its own space, in an independent model,
or else the one block serving every source (the shared space, or
single_space's influence block); no query reads the variant. Loading,
saving, initialization and ranking read the block arrays. Scalar queries
(`space_of`, `influence_point`, `distance_sq`, ...) read a block's
`{id: row}` dict, built on its first lookup. The bulk lookup that resolves
a combination table's pairs for training builds none: it joins the pairs
against the block arrays (`_slot_rows`), so training and saving build no
such dict.
Squared distances, scalar or bulk, come from one array expression, so
`distance_sq` and a ranking agree bit for bit.

Model file layout (integers and floats little-endian):

    magic     4 bytes   b"IAEM"
    version   u32       currently 1
    dim       u32       at least 1
    variant   u8        0 independent, 1 shared_susceptibility, 2 single_space
    tokens    u32 count, then per token: u32 UTF-8 byte length + bytes
    influence u32 count, then per point: u32 user id + dim float64 coords
    susceptibility, by variant:
        independent   u32 source count, then per source: u32 source id,
                      u32 point count, then points as above
        shared        u32 point count, then points
        single_space  nothing (rows live in the influence block)

Tokens are distinct. A user id occurs at most once per point block (and a
source id once among the per-source blocks); when the token table is
non-empty every id indexes into it. Coordinates are finite. The loader reads
each field in file order and reports any failure as a `ModelFormatError` at
the offset of the field it spoils; when several fields are damaged, the
first in file order is reported, except that within a point block a bad id
is reported before a non-finite coordinate.

One parser serves `load_model` and `load_model_file`, so the same bytes
load alike or fail alike. It reads a buffered binary stream of a known
size: the file, opened with a 64 KiB buffer, or the bytes in memory behind
a raw stream that copies out of them as the buffer refills. Each read is
checked against the size before it is made, and one that comes up short is
truncation at the offset reached. Point records are read a piece of about
64 KiB at a time into one coordinate array, allocated once with a row for
each record the bytes after the token table could hold; nothing is sized by
a header field alone, and no copy of the file is held, so the loader needs
the buffer and one piece beside what the model keeps. A model keeps its
tokens as one tuple; the loader checks them for repeats with a set it drops
at once, and every model, loaded, constructed or trained, builds its
`{token: id}` index only on the first lookup (`user_id`).
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
import struct
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from casembed.combinations import _distinct_rows, _join
from casembed.data import _atomic_write

__all__ = [
    "VARIANTS",
    "ModelError",
    "ModelFormatError",
    "EmbeddingModel",
    "init_model",
    "save_model",
    "load_model",
    "save_model_file",
    "load_model_file",
]

VARIANTS = ("independent", "shared_susceptibility", "single_space")
_VARIANT_TAGS = {name: tag for tag, name in enumerate(VARIANTS)}
_MAGIC = b"IAEM"
_VERSION = 1
_U32 = struct.Struct("<I")
_PIECE = 1 << 16  # the loader's buffer, and the bytes of point records it reads at a time


class ModelError(Exception):
    """Invalid model construction or query."""


class ModelFormatError(ModelError):
    """Unreadable model data; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _distances_sq(coords: np.ndarray, row_x: int, rows_y: np.ndarray) -> np.ndarray:
    """Squared distances from point `row_x` to each point of `rows_y`.

    The one expression behind both `distance_sq` and ranking: each result
    depends only on its own two rows, so scalar and bulk agree bit for bit.
    """
    diff = coords[rows_y] - coords[row_x]
    return np.einsum("ij,ij->i", diff, diff)


class _Block:
    """One point block: user ids and their coordinate rows, in block order."""

    def __init__(self, ids: np.ndarray, rows: np.ndarray):
        self.ids = ids
        self.rows = rows

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> _Block:
        count = len(mapping)
        return cls(np.fromiter(mapping, np.int64, count),
                   np.fromiter(mapping.values(), np.int64, count))

    @cached_property
    def view(self) -> Mapping[int, int]:
        """The block as a read-only `{id: row}` mapping, built on first use."""
        return MappingProxyType(dict(zip(self.ids.tolist(), self.rows.tolist())))


class EmbeddingModel:
    """Influence and susceptibility coordinates for a set of users.

    `influence` maps user id -> row of `coords`; the susceptibility mapping
    is variant-dependent (see module docstring). Construction checks that
    each row of `coords` is exactly one point's and that coordinates are
    finite; coordinates are mutated in place by training.
    """

    def __init__(
        self,
        dimension: int,
        variant: str,
        coords: np.ndarray,
        influence: Mapping[int, int],
        spaces: Mapping[int, Mapping[int, int]] | None = None,
        shared_space: Mapping[int, int] | None = None,
        tokens: tuple[str, ...] = (),
    ):
        if dimension < 1:
            raise ModelError(f"dimension must be at least 1, got {dimension}")
        if variant not in VARIANTS:
            raise ModelError(f"variant must be one of {VARIANTS}, got {variant!r}")
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != dimension:
            raise ModelError(
                f"coords must have shape (P, {dimension}), got {coords.shape}"
            )
        if coords.size and not np.isfinite(coords).all():
            raise ModelError("coordinates must be finite")
        blocks, sources = [_Block.of(influence)], []
        if variant == "independent":
            if shared_space is not None:
                raise ModelError("independent models take per-source spaces")
            sources = list(spaces or {})
            blocks += map(_Block.of, (spaces or {}).values())
        elif variant == "shared_susceptibility":
            if spaces is not None:
                raise ModelError("shared_susceptibility models take one shared space")
            blocks.append(_Block.of(shared_space or {}))
        elif spaces is not None or shared_space is not None:
            raise ModelError("single_space models store all points as influence")
        self._assign(dimension, variant, coords, blocks, sources, _distinct(tokens))
        rows = np.concatenate([block.rows for block in blocks])
        if len(rows) and not (0 <= rows.min() and rows.max() < len(coords)):
            bad = rows[(rows < 0) | (rows >= len(coords))][0]
            raise ModelError(f"coordinate row {bad} out of bounds for {len(coords)} points")
        owners = np.bincount(rows, minlength=len(coords))
        if (owners != 1).any():
            bad = int((owners != 1).argmax())
            raise ModelError(f"coordinate row {bad} belongs to {owners[bad]} points, not one")

    def _assign(self, dimension, variant, coords, blocks, sources, tokens):
        """Set the model's state from its point blocks in file order, the ids
        of the sources owning `blocks[1:]` if independent, and its distinct
        tokens in id order. Other models serve every source from their last
        block."""
        self.dimension = int(dimension)
        self.variant = variant
        self.coords = coords
        self._blocks: list[_Block] = blocks
        self._spaces: dict[int, _Block] = dict(zip(sources, blocks[1:]))
        self._serving: _Block | None = None if variant == "independent" else blocks[-1]
        self.tokens = tuple(tokens)

    @classmethod
    def _from_blocks(cls, dimension, variant, coords, blocks, sources, tokens) -> EmbeddingModel:
        """A model over blocks known to give each row to exactly one point,
        with finite coordinates and distinct `tokens`."""
        model = cls.__new__(cls)
        model._assign(dimension, variant, coords, blocks, sources, tokens)
        return model

    @cached_property
    def _token_ids(self) -> dict[str, int]:
        """The `{token: id}` index of the token table, built on the first
        `user_id` call: loading, training, saving and `evaluate` look no
        token up, so most models never build it."""
        return {tok: i for i, tok in enumerate(self.tokens)}

    def _space_block(self, source: int) -> _Block | None:
        return self._spaces.get(source, self._serving)

    @property
    def _influence(self) -> Mapping[int, int]:
        return self._blocks[0].view

    # -- queries ---------------------------------------------------------

    def influence_users(self):
        """Ids holding an influence coordinate (every embedded user for
        single_space models)."""
        return self._influence.keys()

    def space_of(self, source: int) -> Mapping[int, int] | None:
        """Row map of the susceptibility space serving `source`, or None."""
        block = self._space_block(source)
        return None if block is None else block.view

    def influence_point(self, user: int) -> np.ndarray | None:
        row = self._influence.get(user)
        return None if row is None else self.coords[row]

    def susceptibility_point(self, source: int, user: int) -> np.ndarray | None:
        space = self.space_of(source)
        if space is None:
            return None
        row = space.get(user)
        return None if row is None else self.coords[row]

    def distance_sq(self, source: int, user: int) -> float | None:
        """Squared Euclidean distance from the source's influence point to
        the user's point in that source's space; None if either is missing."""
        row_x = self._influence.get(source)
        if row_x is None:
            return None
        space = self.space_of(source)
        if space is None:
            return None
        row_y = space.get(user)
        if row_y is None:
            return None
        return float(_distances_sq(self.coords, row_x, np.array([row_y]))[0])

    def _space_distances(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the source's susceptibility space other than the source,
        in block order, and their squared distances from its influence
        point (each bit-equal to `distance_sq`). The source must have an
        influence point."""
        row_x = self._influence[source]
        block = self._space_block(source)
        if block is None:
            return np.empty(0, dtype=np.int64), np.empty(0)
        keep = block.ids != source
        return block.ids[keep], _distances_sq(self.coords, row_x, block.rows[keep])

    def _slot_rows(self, sources: np.ndarray, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For (source, user) pairs: the source's influence row and the
        user's row in the source's space, each -1 where absent. Two array
        joins and no `{id: row}` view: the sources against the influence
        block's ids, and the pairs against the susceptibility points, keyed
        by (owning source, id) in an independent model and by id alone
        otherwise."""
        influence = self._blocks[0]
        x = _join(np.zeros_like(influence.ids), influence.ids, influence.rows,
                  np.zeros_like(sources), sources)
        if self._serving is None:
            blocks = list(self._spaces.values())
            owners = np.repeat(np.fromiter(self._spaces, np.int64, len(blocks)),
                               [len(block.ids) for block in blocks])
        else:
            blocks = [self._serving]
            owners, sources = np.zeros_like(blocks[0].ids), np.zeros_like(sources)
        ids = np.concatenate([np.empty(0, dtype=np.int64), *(block.ids for block in blocks)])
        rows = np.concatenate([np.empty(0, dtype=np.int64), *(block.rows for block in blocks)])
        return x, _join(owners, ids, rows, sources, users)

    def diffusion_kernel(self, source: int, user: int, time: float = 1.0) -> float | None:
        """Contamination propensity (4*pi*t)^(-D/2) * exp(-d^2 / (4 t)).

        Strictly decreasing in the squared distance for fixed t, so ranking
        by descending kernel equals ranking by ascending distance. None when
        the distance is absent; ValueError unless `time` is finite and
        positive.
        """
        if not (math.isfinite(time) and time > 0):
            raise ValueError(f"kernel time must be finite and positive, got {time}")
        d2 = self.distance_sq(source, user)
        if d2 is None:
            return None
        norm = (4.0 * math.pi * time) ** (-0.5 * self.dimension)
        return norm * math.exp(-d2 / (4.0 * time))

    def user_id(self, token: str) -> int | None:
        return self._token_ids.get(token)

    def token(self, user: int) -> str:
        return self.tokens[user]

    @property
    def num_points(self) -> int:
        return len(self.coords)

    def susceptibility_size(self) -> int:
        """Number of allocated (source, user) susceptibility slots."""
        blocks = self._spaces.values() if self._serving is None else [self._serving]
        return sum(len(block.ids) for block in blocks)

    # -- equality (used by round-trip tests) ------------------------------

    def _state(self):
        """Per-point coordinate bytes of every block, in file order."""
        blocks = [{k: self.coords[r].tobytes() for k, r in block.view.items()}
                  for block in self._blocks]
        return (self.dimension, self.variant, self.tokens, list(self._spaces), blocks)

    def __eq__(self, other):
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        return self._state() == other._state()


def _distinct(tokens) -> tuple[str, ...]:
    """The tokens as a tuple, checked without keeping an index; a repeat
    raises ModelError."""
    tokens = tuple(tokens)
    if len(set(tokens)) != len(tokens):
        raise ModelError("token table contains duplicate tokens")
    return tokens


def init_model(table, config, rng: np.random.Generator) -> EmbeddingModel:
    """Allocate and randomly initialize coordinates for a combination table.

    One influence point per source in the table and one susceptibility point
    per (source, user) pair appearing as earlier or later, with storage
    shared per ``config.variant``. Coordinates are i.i.d. uniform in
    [-0.5/D, 0.5/D]; the small symmetric range keeps initial distance gaps
    near zero so most hinges start active. `config` only needs `dimension`
    and `variant` attributes.

    Allocation reads `CombinationTable`'s pair numbering and sorts only the
    table's sources and the S + P (space, user) points they give, never its
    combinations. Points are numbered with `_distinct_rows`, so ids may
    take any int64 value: each point keeps its own id, and `save_model`
    rejects ids a model file cannot hold. Each temporary is freed once
    read, so the coordinates are allocated beside the blocks alone.
    """
    dim = config.dimension
    variant = config.variant
    if dim < 1:
        raise ModelError(f"dimension must be at least 1, got {dim}")
    if variant not in VARIANTS:
        raise ModelError(f"variant must be one of {VARIANTS}, got {variant!r}")

    # Combinations read their source's influence point, then the earlier and
    # later users' susceptibility points; rows follow first appearance in that
    # sequence, at positions 3n, 3n + 1 and 3n + 2 for combination n. The
    # table's pair numbering names the (source, user) pairs read, so first
    # appearances come from a scatter-min per source and per pair, and only
    # the S + P candidate points are sorted. Space 0 holds influence points;
    # in independent models source k (in id order) owns space k + 1.
    n = len(table)
    sources, pair_space = np.unique(table.pair_source, return_inverse=True)
    position = np.arange(0, 3 * n, 3)
    first = np.full(len(sources) + len(pair_space), 3 * n)
    pair_first = first[len(sources):]
    np.minimum.at(first, pair_space[table.earlier_pair], position)
    np.minimum.at(pair_first, table.earlier_pair, position + 1)
    np.minimum.at(pair_first, table.later_pair, position + 2)
    del position, pair_first
    space = np.zeros(len(first), dtype=np.int64)
    if variant != "single_space":
        space[len(sources):] = 1 + pair_space if variant == "independent" else 1
    del pair_space
    users = np.concatenate([sources, table.pair_user])
    point, at = _distinct_rows(space, users)
    point_first = np.full(len(point), 3 * n)
    np.minimum.at(point_first, at, first)  # a single_space user point may also be a source's
    del at, first
    point = point[np.argsort(point_first)]
    del point_first
    point_space, point_user = space[point], users[point]
    del space, users
    # Group rows by space, ascending within each; a block's order is its rows'
    # order, and blocks follow their first rows.
    by_space = np.argsort(point_space, kind="stable")
    grouped = point_space[by_space]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    bounds = np.append(starts, len(point))
    blocks = {}
    for k in np.argsort(by_space[starts], kind="stable").tolist():
        rows = by_space[bounds[k] : bounds[k + 1]]
        blocks[int(grouped[bounds[k]])] = _Block(point_user[rows], rows)
    empty = _Block(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    influence = blocks.pop(0, empty)
    if variant == "shared_susceptibility":
        blocks.setdefault(1, empty)
    owners = [int(sources[s - 1]) for s in blocks] if variant == "independent" else []

    half = 0.5 / dim
    coords = rng.uniform(-half, half, size=(len(point), dim))
    return EmbeddingModel._from_blocks(dim, variant, coords, [influence, *blocks.values()],
                                       owners, _distinct(table.tokens or ()))


# -- serialization ---------------------------------------------------------


def _point_dtype(dim: int) -> np.dtype:
    """One point record of the file: u32 user id, then dim float64 coords."""
    return np.dtype([("id", "<u4"), ("x", "<f8", (dim,))])


def _check_savable(ids: np.ndarray, id_limit: int):
    """Reject ids a model file cannot hold: outside u32, or past a non-empty
    token table of `id_limit` tokens."""
    if len(ids) and (ids.min() < 0 or ids.max() > 0xFFFFFFFF):
        raise ModelError("user ids must fit in an unsigned 32-bit integer to be saved")
    if len(ids) and id_limit and ids.max() >= id_limit:
        raise ModelError(f"id {ids.max()} is past the token table of {id_limit}")


def _pack_points(out: bytearray, model: EmbeddingModel, block: _Block):
    out.extend(_U32.pack(len(block.ids)))
    if not len(block.ids):
        return
    _check_savable(block.ids, len(model.tokens))
    records = np.empty(len(block.ids), dtype=_point_dtype(model.dimension))
    records["id"] = block.ids
    records["x"] = model.coords[block.rows]
    out += memoryview(records)  # `out += records` would be numpy's in-place add


def save_model(model: EmbeddingModel) -> bytearray:
    """Serialize a model to its binary format (coordinates bit-exact). The
    file is built in, and returned as, one `bytearray`, so no second copy of
    it is made. Raises ModelError on an id `load_model` would refuse."""
    out = bytearray()
    out.extend(_MAGIC)
    out.extend(struct.pack("<IIB", _VERSION, model.dimension, _VARIANT_TAGS[model.variant]))
    out.extend(_U32.pack(len(model.tokens)))
    for tok in model.tokens:
        data = tok.encode("utf-8")
        out.extend(_U32.pack(len(data)))
        out.extend(data)
    influence, *spaces = model._blocks
    _pack_points(out, model, influence)
    if model.variant == "independent":
        out.extend(_U32.pack(len(spaces)))
        _check_savable(np.fromiter(model._spaces, np.int64, len(spaces)), len(model.tokens))
    for block, source in itertools.zip_longest(spaces, model._spaces):
        if source is not None:  # a per-source space is headed by its source id
            out.extend(_U32.pack(source))
        _pack_points(out, model, block)
    return out


def save_model_file(model: EmbeddingModel, path) -> None:
    """Write the model atomically (temp file + rename)."""
    _atomic_write(path, save_model(model))


class _InPlace(io.RawIOBase):
    """Bytes in memory as a raw stream that copies out of them a read at a
    time, so no copy of them is made first."""

    # `io.BufferedReader` reads its raw stream's `closed` on every read: a
    # plain class attribute, shadowed by the instance's once closed, is found
    # without `io.RawIOBase`'s getter and its own attribute lookup.
    closed = False

    def __init__(self, data: memoryview):
        self._data, self._offset = data, 0

    def close(self):
        super().close()
        self.closed = True

    def readable(self) -> bool:
        return True

    def readinto(self, out) -> int:
        piece = self._data[self._offset : self._offset + len(out)]
        out[: len(piece)] = piece
        self._offset += len(piece)
        return len(piece)


class _Source:
    """A buffered binary stream read in file order against its `size`: no
    read passes `size`, and a read that comes up short is truncation at the
    offset reached."""

    def __init__(self, stream, size: int):
        self.stream, self.size = stream, size
        self.offset = 0  # of the next byte `read` returns

    def read(self, n: int) -> bytes:
        """The next `n` bytes, or truncation at the offset if they pass `size`."""
        if self.offset + n > self.size:
            raise ModelFormatError("truncated model data", self.offset)
        data = self.stream.read(n)
        self.offset += len(data)
        if len(data) < n:
            raise ModelFormatError("truncated model data", self.offset)
        return data


def _u32(source: _Source) -> int:
    """The u32 field at the source's offset, or truncation reported there."""
    return _U32.unpack(source.read(4))[0]


def _read_tokens(source: _Source) -> tuple[str, ...]:
    """Read the token table, rejecting truncation, invalid UTF-8 and a
    repeated token, each at the offset of the first field it spoils; returns
    the tokens in id order. Each length field and each token is one call of
    the stream's own `read`, checked as `_Source.read` checks its reads.
    Repeats are found by one set, dropped once read; a repeat's offset is
    sought only when there is one, and one before other damage comes first."""
    count = _u32(source)
    read, size, unpack = source.stream.read, source.size, _U32.unpack
    tokens: list[str] = []
    table = at = source.offset  # `at`: of the next token's length field
    try:
        for _ in range(count):
            if at + 4 > size:
                raise ModelFormatError("truncated model data", at)
            field = read(4)
            if len(field) < 4:
                raise ModelFormatError("truncated model data", at + len(field))
            start = at + 4
            stop = start + unpack(field)[0]
            if stop > size:
                raise ModelFormatError("truncated model data", start)
            data = read(stop - start)
            if len(data) < stop - start:
                raise ModelFormatError("truncated model data", start + len(data))
            try:
                tokens.append(str(data, "utf-8"))
            except UnicodeDecodeError:
                raise ModelFormatError("token is not valid UTF-8", start)
            at = stop
    except ModelFormatError:
        _check_distinct(tokens, table)
        raise
    _check_distinct(tokens, table)
    source.offset = at
    return tuple(tokens)


def _check_distinct(tokens: list[str], at: int):
    """Reject the first token that repeats an earlier one, at the offset of
    its length field; the table's first length field is at `at`."""
    if len(set(tokens)) == len(tokens):
        return
    seen: set[str] = set()
    for token in tokens:
        if token in seen:
            raise ModelFormatError(f"token {token!r} repeats", at)
        seen.add(token)
        at += 4 + len(token.encode("utf-8"))


def _check_ids(ids: np.ndarray, start: int, record: int, id_limit: int | None):
    """Reject an id that repeats within its block or, when the model has a
    token table, lies past its end; the first bad point in block order is
    reported, at its offset `start + index * record`."""
    ordered = np.sort(ids)
    if not ((ordered[1:] == ordered[:-1]).any()
            or (id_limit is not None and ordered[-1] >= id_limit)):
        return
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    repeat = first[inverse] != np.arange(len(ids))  # every occurrence after an id's first
    past = ids >= id_limit if id_limit is not None else False
    k = int(np.argmax(repeat | past))
    user, offset = int(ids[k]), start + k * record
    if repeat[k]:
        raise ModelFormatError(f"id {user} repeats within its block", offset)
    raise ModelFormatError(f"id {user} is past the token table of {id_limit}", offset)


class _PointReader:
    """Reads a model's point blocks into one coordinate array.

    The array is allocated once, at the first point, with a row for each
    record the bytes after the token table could hold, so its size is
    bounded by the file's. Records are read `_PIECE` bytes at a time and
    copied straight into their rows; rows are numbered in file order."""

    def __init__(self, source: _Source, dim: int, id_limit: int | None):
        self.source, self.dim, self.id_limit = source, dim, id_limit
        self.record = 4 + 8 * dim
        self.capacity = (source.size - source.offset) // self.record
        self.coords: np.ndarray | None = None
        self.rows = 0  # rows filled: the next block's first row

    def read(self) -> _Block:
        """Read and check the point block at the source's offset."""
        source, dim, record = self.source, self.dim, self.record
        count = _u32(source)
        start = source.offset
        fits = (source.size - start) // record
        if count > fits:
            raise ModelFormatError("truncated model data", start + fits * record)
        if record > np.iinfo(np.int32).max:  # past numpy's largest record
            raise ModelFormatError(f"dimension {dim} is too large", 8)
        if count and self.coords is None:
            self.coords = np.empty((self.capacity, dim))
        first, ids = self.rows, np.empty(count, dtype=np.int64)
        dtype, step = _point_dtype(dim), max(1, _PIECE // record)
        bad = None  # the offset of the block's first non-finite coordinate
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            points = np.frombuffer(source.read((hi - lo) * record), dtype=dtype)
            ids[lo:hi] = points["id"]
            coords = self.coords[first + lo : first + hi]
            coords[...] = points["x"]
            if bad is None and not np.isfinite(coords).all():
                # the first non-finite value in row-major order is the first in the file
                point, col = divmod(int(np.flatnonzero(~np.isfinite(coords))[0]), dim)
                bad = start + (lo + point) * record + 4 + 8 * col
        if count:
            _check_ids(ids, start, record, self.id_limit)
        if bad is not None:
            raise ModelFormatError("coordinates must be finite", bad)
        self.rows += count
        return _Block(ids, np.arange(first, self.rows, dtype=np.int64))

    def coordinates(self) -> np.ndarray:
        """The filled rows, a view of the array read into."""
        return np.empty((0, self.dim)) if self.coords is None else self.coords[: self.rows]


def _parse(stream, size: int) -> EmbeddingModel:
    """The model in the `size` bytes the buffered binary `stream` holds,
    read field by field in file order; raises ModelFormatError (with
    offset) on damage."""
    source = _Source(stream, size)
    if source.read(4) != _MAGIC:
        raise ModelFormatError(f"bad magic, expected {_MAGIC!r}", 0)
    version = _u32(source)
    if version != _VERSION:
        raise ModelFormatError(f"unsupported format version {version}", 4)
    dim = _u32(source)
    if dim < 1:
        raise ModelFormatError(f"dimension must be at least 1, got {dim}", 8)
    tag = source.read(1)[0]
    if tag >= len(VARIANTS):
        raise ModelFormatError(f"unknown variant tag {tag}", 12)
    variant = VARIANTS[tag]
    tokens = _read_tokens(source)
    id_limit = len(tokens) if tokens else None
    points = _PointReader(source, dim, id_limit)
    blocks, sources = [points.read()], {}  # `sources` is an ordered set
    if variant == "independent":
        for _ in range(_u32(source)):
            offset = source.offset
            owner = _u32(source)
            if owner in sources:
                raise ModelFormatError(f"id {owner} repeats within its block", offset)
            if id_limit is not None and owner >= id_limit:
                raise ModelFormatError(f"id {owner} is past the token table of {id_limit}",
                                       offset)
            sources[owner] = None
            blocks.append(points.read())
    elif variant == "shared_susceptibility":
        blocks.append(points.read())
    if source.offset != source.size:
        raise ModelFormatError("trailing bytes after model", source.offset)
    return EmbeddingModel._from_blocks(dim, variant, points.coordinates(), blocks, sources,
                                       tokens)


def load_model(data) -> EmbeddingModel:
    """Parse model bytes (`bytes`, a `bytearray` or a byte `memoryview`,
    read in place); raises ModelFormatError (with offset) on damage."""
    data = memoryview(data).cast("B")
    return _parse(io.BufferedReader(_InPlace(data), _PIECE), len(data))


def load_model_file(path) -> EmbeddingModel:
    """Read a model file as `load_model` reads its bytes, with the same
    errors at the same offsets, but in pieces: no copy of the file is held.
    A path that is not a regular file, such as a pipe, is read whole."""
    with open(path, "rb", buffering=_PIECE) as stream:
        info = os.fstat(stream.fileno())
        if not stat.S_ISREG(info.st_mode):
            return load_model(stream.read())
        return _parse(stream, info.st_size)
