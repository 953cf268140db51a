"""Latent spaces: packed coordinate storage, distance and kernel queries,
and the binary model file format.

All points live in one (P, D) float64 array; influence coordinates and
per-source susceptibility coordinates are row indices into it. Susceptibility
storage depends on the variant:

    independent             every source owns a private susceptibility map
    shared_susceptibility   one susceptibility map serves every source
    single_space            susceptibility and influence share one map

Model file layout (integers and floats little-endian):

    magic     4 bytes   b"IAEM"
    version   u32       currently 1
    dim       u32
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
non-empty every id indexes into it. Coordinates are finite.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from typing import Mapping

import numpy as np

from casembed.combinations import _unique_first

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


class ModelError(Exception):
    """Invalid model construction or query."""


class ModelFormatError(ModelError):
    """Unreadable model data; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EmbeddingModel:
    """Influence and susceptibility coordinates for a set of users.

    `influence` maps user id -> row of `coords`; the susceptibility mapping
    is variant-dependent (see module docstring). Construction validates row
    bounds and finiteness; coordinates are mutated in place by training.
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
        self.dimension = int(dimension)
        self.variant = variant
        self.coords = coords
        self._influence: dict[int, int] = dict(influence)
        if variant == "independent":
            if shared_space is not None:
                raise ModelError("independent models take per-source spaces")
            self._spaces: dict[int, dict[int, int]] | None = {
                s: dict(m) for s, m in (spaces or {}).items()
            }
            self._shared: dict[int, int] | None = None
        elif variant == "shared_susceptibility":
            if spaces is not None:
                raise ModelError("shared_susceptibility models take one shared space")
            self._spaces = None
            self._shared = dict(shared_space or {})
        else:  # single_space: susceptibility aliases influence storage
            if spaces is not None or shared_space is not None:
                raise ModelError("single_space models store all points as influence")
            self._spaces = None
            self._shared = self._influence
        self.tokens = tuple(tokens)
        self._token_ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._token_ids) != len(self.tokens):
            raise ModelError("token table contains duplicate tokens")
        self._check_rows()

    def _check_rows(self):
        total = len(self.coords)
        rows = list(self._influence.values())
        if self.variant == "independent":
            for space in self._spaces.values():
                rows.extend(space.values())
        elif self.variant == "shared_susceptibility":
            rows.extend(self._shared.values())
        for row in rows:
            if not 0 <= row < total:
                raise ModelError(f"coordinate row {row} out of bounds for {total} points")

    # -- queries ---------------------------------------------------------

    def influence_users(self):
        """Ids holding an influence coordinate (every embedded user for
        single_space models)."""
        return self._influence.keys()

    def space_of(self, source: int) -> Mapping[int, int] | None:
        """Row map of the susceptibility space serving `source`, or None."""
        if self.variant == "independent":
            return self._spaces.get(source)
        return self._shared

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
        diff = self.coords[row_x] - self.coords[row_y]
        return float(diff @ diff)

    def diffusion_kernel(self, source: int, user: int, time: float = 1.0) -> float | None:
        """Contamination propensity (4*pi*t)^(-D/2) * exp(-d^2 / (4 t)).

        Strictly decreasing in the squared distance for fixed t, so ranking
        by descending kernel equals ranking by ascending distance. None when
        the distance is absent.
        """
        if time <= 0:
            raise ValueError(f"kernel time must be positive, got {time}")
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
        if self.variant == "independent":
            return sum(len(space) for space in self._spaces.values())
        return len(self._shared)

    # -- equality (used by round-trip tests) ------------------------------

    def _state(self):
        def rows(mapping):
            return {k: self.coords[r].tobytes() for k, r in mapping.items()}

        if self.variant == "independent":
            spaces = {s: rows(m) for s, m in self._spaces.items()}
        elif self.variant == "shared_susceptibility":
            spaces = rows(self._shared)
        else:
            spaces = None
        return (self.dimension, self.variant, self.tokens, rows(self._influence), spaces)

    def __eq__(self, other):
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        return self._state() == other._state()


def init_model(table, config, rng: np.random.Generator) -> EmbeddingModel:
    """Allocate and randomly initialize coordinates for a combination table.

    One influence point per source in the table and one susceptibility point
    per (source, user) pair appearing as earlier or later, with storage
    shared per ``config.variant``. Coordinates are i.i.d. uniform in
    [-0.5/D, 0.5/D]; the small symmetric range keeps initial distance gaps
    near zero so most hinges start active. `config` only needs `dimension`
    and `variant` attributes.
    """
    dim = config.dimension
    variant = config.variant
    if dim < 1:
        raise ModelError(f"dimension must be at least 1, got {dim}")
    if variant not in VARIANTS:
        raise ModelError(f"variant must be one of {VARIANTS}, got {variant!r}")

    # Combinations read their source's influence point, then the earlier and
    # later users' susceptibility points; rows follow first appearance in that
    # sequence. Space 0 holds influence points; in independent models source
    # k (in id order) owns space k + 1. Keys fit int64 for u32 (savable) ids.
    sources, source_at = np.unique(table.source, return_inverse=True)
    space = np.zeros((len(table), 3), dtype=np.int64)
    if variant != "single_space":
        space[:, 1:] = 1 + source_at[:, None] if variant == "independent" else 1
    space, users = space.ravel(), np.stack([table.source, table.earlier, table.later], 1).ravel()
    at = np.sort(_unique_first(space * (int(users.max(initial=0)) + 1) + users)[1])
    influence: dict[int, int] = {}
    spaces: dict[int, dict[int, int]] | None = {} if variant == "independent" else None
    shared: dict[int, int] | None = {} if variant == "shared_susceptibility" else None
    for row, (s, user) in enumerate(zip(space[at].tolist(), users[at].tolist())):
        if s == 0:
            influence[user] = row
        elif spaces is not None:
            spaces.setdefault(int(sources[s - 1]), {})[user] = row
        else:
            shared[user] = row

    half = 0.5 / dim
    coords = rng.uniform(-half, half, size=(len(at), dim))
    return EmbeddingModel(dim, variant, coords, influence, spaces=spaces, shared_space=shared,
                          tokens=tuple(table.tokens or ()))


# -- serialization ---------------------------------------------------------


def _pack_points(out: bytearray, model: EmbeddingModel, mapping: Mapping[int, int]):
    out.extend(struct.pack("<I", len(mapping)))
    for user, row in mapping.items():
        out.extend(struct.pack("<I", user))
        out.extend(np.asarray(model.coords[row], dtype="<f8").tobytes())


def save_model(model: EmbeddingModel) -> bytes:
    """Serialize a model to its binary format (coordinates bit-exact)."""
    out = bytearray()
    out.extend(_MAGIC)
    out.extend(struct.pack("<I", _VERSION))
    out.extend(struct.pack("<I", model.dimension))
    out.extend(struct.pack("<B", _VARIANT_TAGS[model.variant]))
    out.extend(struct.pack("<I", len(model.tokens)))
    for tok in model.tokens:
        data = tok.encode("utf-8")
        out.extend(struct.pack("<I", len(data)))
        out.extend(data)
    _pack_points(out, model, model._influence)
    if model.variant == "independent":
        out.extend(struct.pack("<I", len(model._spaces)))
        for source, space in model._spaces.items():
            out.extend(struct.pack("<I", source))
            _pack_points(out, model, space)
    elif model.variant == "shared_susceptibility":
        _pack_points(out, model, model._shared)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise ModelFormatError("truncated model data", self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_id(reader: _Reader, seen: Mapping[int, object], id_limit: int | None) -> int:
    """Read one u32 user id, rejecting a repeat within its block and, when
    the model has a token table, an id past its end."""
    offset = reader.offset
    user = reader.u32()
    if user in seen:
        raise ModelFormatError(f"id {user} repeats within its block", offset)
    if id_limit is not None and user >= id_limit:
        raise ModelFormatError(f"id {user} is past the token table of {id_limit}", offset)
    return user


def _read_points(
    reader: _Reader, dim: int, coords: list[np.ndarray], starts: list[int],
    id_limit: int | None,
) -> dict[int, int]:
    """Read one point block, appending each point's coordinates to `coords`
    and their byte offset to `starts`."""
    count = reader.u32()
    mapping: dict[int, int] = {}
    for _ in range(count):
        user = _read_id(reader, mapping, id_limit)
        starts.append(reader.offset)
        values = np.frombuffer(reader.take(8 * dim), dtype="<f8").astype(np.float64)
        mapping[user] = len(coords)
        coords.append(values)
    return mapping


def load_model(data: bytes) -> EmbeddingModel:
    """Parse model bytes; raises ModelFormatError (with offset) on damage."""
    reader = _Reader(bytes(data))
    if reader.take(4) != _MAGIC:
        raise ModelFormatError(f"bad magic, expected {_MAGIC!r}", 0)
    version = reader.u32()
    if version != _VERSION:
        raise ModelFormatError(f"unsupported format version {version}", 4)
    dim = reader.u32()
    tag_offset = reader.offset
    tag = reader.u8()
    if tag >= len(VARIANTS):
        raise ModelFormatError(f"unknown variant tag {tag}", tag_offset)
    variant = VARIANTS[tag]
    tokens: list[str] = []
    seen: set[str] = set()
    for _ in range(reader.u32()):
        length_offset = reader.offset
        length = reader.u32()
        raw = reader.take(length)
        try:
            token = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("token is not valid UTF-8", reader.offset - length)
        if token in seen:
            raise ModelFormatError(f"token {token!r} repeats", length_offset)
        seen.add(token)
        tokens.append(token)
    coords: list[np.ndarray] = []
    starts: list[int] = []
    id_limit = len(tokens) if tokens else None
    influence = _read_points(reader, dim, coords, starts, id_limit)
    spaces: dict[int, dict[int, int]] | None = None
    shared: dict[int, int] | None = None
    if variant == "independent":
        spaces = {}
        for _ in range(reader.u32()):
            source = _read_id(reader, spaces, id_limit)
            spaces[source] = _read_points(reader, dim, coords, starts, id_limit)
    elif variant == "shared_susceptibility":
        shared = _read_points(reader, dim, coords, starts, id_limit)
    if reader.offset != len(reader.data):
        raise ModelFormatError("trailing bytes after model", reader.offset)
    packed = np.array(coords) if coords else np.zeros((0, dim))
    # Rows follow file order, so the first non-finite value in row-major
    # order is the first in the file.
    bad = np.flatnonzero(~np.isfinite(packed))
    if bad.size:
        row, col = divmod(int(bad[0]), dim)
        raise ModelFormatError("coordinates must be finite", starts[row] + 8 * col)
    try:
        return EmbeddingModel(
            dim,
            variant,
            packed,
            influence,
            spaces=spaces,
            shared_space=shared,
            tokens=tuple(tokens),
        )
    except ModelError as exc:
        raise ModelFormatError(str(exc), reader.offset)


def save_model_file(model: EmbeddingModel, path) -> None:
    """Write the model atomically (temp file + rename)."""
    data = save_model(model)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model_file(path) -> EmbeddingModel:
    with open(path, "rb") as handle:
        return load_model(handle.read())
