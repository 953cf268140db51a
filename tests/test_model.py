import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from casembed.combinations import Combination, CombinationTable, build_table
from casembed.data import CascadeDataset
from casembed.model import (
    VARIANTS,
    EmbeddingModel,
    ModelError,
    ModelFormatError,
    init_model,
    load_model,
    save_model,
)
from casembed.synthetic import emit_cascades, generate_world


class Cfg:
    def __init__(self, dimension, variant="independent"):
        self.dimension = dimension
        self.variant = variant


def _table(*keys, tokens=None):
    combos = [Combination(s, u, v, 1, 0.5) for s, u, v in keys]
    return CombinationTable(combos, mode="full", tokens=tokens)


def _random_model(rng, dimension=3, variant="independent", n_sources=3, n_users=5):
    rows = []
    for s in range(n_sources):
        members = rng.choice(np.arange(n_sources, n_sources + n_users), size=3, replace=False)
        rows.append((f"c{s}", [f"t{s}"] + [f"t{m}" for m in members]))
    dataset = CascadeDataset.from_token_rows(rows)
    table = build_table(dataset, mode="full")
    return init_model(table, Cfg(dimension, variant), rng)


class TestInitModel:
    def test_allocation_from_single_entry(self):
        model = init_model(_table((1, 3, 4)), Cfg(2), np.random.default_rng(0))
        assert set(model.influence_users()) == {1}
        assert set(model.space_of(1)) == {3, 4}
        assert model.space_of(2) is None
        assert model.num_points == 3

    def test_empty_table(self):
        model = init_model(_table(), Cfg(4), np.random.default_rng(0))
        assert model.num_points == 0
        assert model.susceptibility_size() == 0

    def test_same_seed_bitwise_identical(self):
        table = _table((1, 3, 4), (1, 4, 5), (2, 3, 5))
        a = init_model(table, Cfg(5), np.random.default_rng(99))
        b = init_model(table, Cfg(5), np.random.default_rng(99))
        assert a == b
        assert a.coords.tobytes() == b.coords.tobytes()

    def test_init_range_scales_with_dimension(self):
        table = _table(*[(s, u, v) for s in range(4) for u, v in [(10, 11), (11, 12)]])
        for dim in (1, 2, 10):
            model = init_model(table, Cfg(dim), np.random.default_rng(1))
            bound = 0.5 / dim
            assert np.all(np.abs(model.coords) <= bound)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ModelError):
            init_model(_table((1, 2, 3)), Cfg(0), np.random.default_rng(0))

    def test_sparsity_matches_table_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = _random_model(rng)
            # rebuild the pair set from the model's own spaces
            pairs = {
                (s, u)
                for s in model.influence_users()
                for u in model.space_of(s)
            }
            assert model.susceptibility_size() == len(pairs)


# SHA-256 of save_model(init_model(...)) per corpus, mode and variant: row
# numbering follows first appearance in the table, so a change in allocation
# order changes these bytes.
_INIT_DIGESTS = {
    ("synthetic", "dominant", "independent"): "89436a7baaa7582580ced760b40e3d04fe12e1e84b316b8345a7694ad7b778f2",
    ("synthetic", "dominant", "shared_susceptibility"): "008a66ec154322ad60ff3f27dea25be16737757970c84650ad0c4f338ec8ea23",
    ("synthetic", "dominant", "single_space"): "d79bfe96bd32618189603b262f750dc27d42f5f43d9cb5cd38c1e957800a6b08",
    ("synthetic", "full", "independent"): "89436a7baaa7582580ced760b40e3d04fe12e1e84b316b8345a7694ad7b778f2",
    ("synthetic", "full", "shared_susceptibility"): "008a66ec154322ad60ff3f27dea25be16737757970c84650ad0c4f338ec8ea23",
    ("synthetic", "full", "single_space"): "d79bfe96bd32618189603b262f750dc27d42f5f43d9cb5cd38c1e957800a6b08",
    ("overlapping", "dominant", "independent"): "d7d16e6c7cf5149ac46d3058f6bd82a9229cf2f282432c8abeb1cae833a9cc73",
    ("overlapping", "dominant", "shared_susceptibility"): "d0ba8613f50a1c8286a8e4141dca992d6e91e21e28e033514883190c91e4c851",
    ("overlapping", "dominant", "single_space"): "afa6ffa6eb8db9b42cc7062ea8e6423b0365baef8e24349f3f22ad4db8956ff9",
    ("overlapping", "full", "independent"): "eb8302f8570bc5d0b12c9dd3fafc1569a96d61a97e10ef70810aa661d60a95f3",
    ("overlapping", "full", "shared_susceptibility"): "fe0a1e1eb7a7ac927cb71ee6cf4288c92c29547659ec61fdee25e75aaa0c08f5",
    ("overlapping", "full", "single_space"): "d5f59295b4f242231eaf3777eedf2c2957088b135f710f12c94f08f25e4e60f1",
}


def _pinned_corpus(name):
    if name == "synthetic":
        world = generate_world(3, 8, 2, seed=5, noise=0.3)
        return emit_cascades(world, 6, 5, seed=6)
    # sources also appear as infected users, and users recur across sources
    rng = np.random.default_rng(8)
    rows = [
        (f"c{i}", [f"t{u}" for u in rng.choice(9, size=int(rng.integers(2, 7)), replace=False)])
        for i in range(30)
    ]
    return CascadeDataset.from_token_rows(rows)


@pytest.mark.parametrize("corpus,mode,variant", sorted(_INIT_DIGESTS))
def test_init_model_bytes_pinned(corpus, mode, variant):
    table = build_table(_pinned_corpus(corpus), mode=mode)
    model = init_model(table, Cfg(3, variant), np.random.default_rng(2))
    digest = hashlib.sha256(save_model(model)).hexdigest()
    assert digest == _INIT_DIGESTS[corpus, mode, variant]


class TestDistance:
    def test_three_four_five(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        model = EmbeddingModel(2, "independent", coords, {0: 0}, spaces={0: {1: 1}})
        assert model.distance_sq(0, 1) == 25.0

    def test_zero_for_identical_points(self):
        coords = np.array([[1.5, -2.0], [1.5, -2.0]])
        model = EmbeddingModel(2, "independent", coords, {0: 0}, spaces={0: {1: 1}})
        assert model.distance_sq(0, 1) == 0.0

    def test_absent_when_unallocated(self):
        model = init_model(_table((1, 3, 4)), Cfg(2), np.random.default_rng(0))
        assert model.distance_sq(1, 99) is None
        assert model.distance_sq(99, 3) is None
        assert model.susceptibility_point(1, 99) is None
        assert model.influence_point(99) is None


class TestKernel:
    def test_unit_value_at_zero_distance(self):
        coords = np.zeros((2, 2))
        model = EmbeddingModel(2, "independent", coords, {0: 0}, spaces={0: {1: 1}})
        t = 1.0 / (4.0 * math.pi)
        assert model.diffusion_kernel(0, 1, time=t) == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_formula(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        model = EmbeddingModel(2, "independent", coords, {0: 0}, spaces={0: {1: 1}})
        t = 1.0 / (4.0 * math.pi)
        expected = math.exp(-25.0 / (4.0 * t))
        assert model.diffusion_kernel(0, 1, time=t) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        model = init_model(_table((1, 3, 4)), Cfg(2), np.random.default_rng(0))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                model.diffusion_kernel(1, 3, time=bad)

    def test_kernel_ranking_equals_distance_ranking(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            model = _random_model(rng, dimension=int(rng.integers(1, 6)))
            t = float(rng.uniform(0.05, 10.0))
            for s in model.influence_users():
                users = sorted(model.space_of(s))
                by_distance = sorted(users, key=lambda u: (model.distance_sq(s, u), u))
                by_kernel = sorted(
                    users, key=lambda u: (-model.diffusion_kernel(s, u, time=t), u)
                )
                assert by_distance == by_kernel


class TestVariants:
    def test_shared_susceptibility_collapses_sources(self):
        table = _table((1, 3, 4), (2, 3, 5))
        model = init_model(table, Cfg(3, "shared_susceptibility"), np.random.default_rng(4))
        assert model.space_of(1) is model.space_of(2)
        # distance to user 3 differs only through the influence point
        y = model.susceptibility_point(1, 3)
        assert y is model.susceptibility_point(2, 3) or np.array_equal(
            y, model.susceptibility_point(2, 3)
        )
        assert set(model.space_of(1)) == {3, 4, 5}

    def test_single_space_shares_storage(self):
        table = _table((1, 3, 4), (2, 3, 5))
        model = init_model(table, Cfg(3, "single_space"), np.random.default_rng(4))
        assert model.distance_sq(1, 1) == 0.0
        assert set(model.influence_users()) == {1, 2, 3, 4, 5}
        x = model.influence_point(3)
        y = model.susceptibility_point(2, 3)
        assert np.array_equal(x, y)

    def test_variant_allocation_sizes(self):
        table = _table((1, 3, 4), (2, 3, 4))
        rng = lambda: np.random.default_rng(0)
        independent = init_model(table, Cfg(2, "independent"), rng())
        shared = init_model(table, Cfg(2, "shared_susceptibility"), rng())
        single = init_model(table, Cfg(2, "single_space"), rng())
        assert independent.num_points == 2 + 4  # 2 sources + 2 users per space
        assert shared.num_points == 2 + 2
        assert single.num_points == 4


class TestSaveLoad:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip(self, variant):
        rng = np.random.default_rng(57)
        model = _random_model(rng, dimension=4, variant=variant)
        blob = save_model(model)
        again = load_model(blob)
        assert again == model  # per-point coordinate bytes compared exactly
        assert again.tokens == model.tokens
        assert save_model(again) == blob

    def test_round_trip_empty(self):
        model = init_model(_table(), Cfg(3), np.random.default_rng(0))
        again = load_model(save_model(model))
        assert again == model
        assert again.num_points == 0

    def test_bad_magic(self):
        blob = b"NOPE" + save_model(
            init_model(_table((1, 2, 3)), Cfg(2), np.random.default_rng(0))
        )[4:]
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(blob)

    def test_bad_version(self):
        blob = bytearray(save_model(init_model(_table((1, 2, 3)), Cfg(2), np.random.default_rng(0))))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(bytes(blob))

    def test_truncation_reports_offset(self):
        blob = save_model(init_model(_table((1, 2, 3)), Cfg(2), np.random.default_rng(0)))
        for cut in (0, 3, 7, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ModelFormatError) as err:
                load_model(blob[:cut])
            assert err.value.offset <= cut

    def test_trailing_garbage_rejected(self):
        blob = save_model(init_model(_table((1, 2, 3)), Cfg(2), np.random.default_rng(0)))
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(blob + b"\x00")

    def test_repeated_id_in_block_rejected_at_its_offset(self):
        coords = np.zeros((2, 2))
        blob = bytearray(save_model(EmbeddingModel(2, "single_space", coords, {3: 0, 4: 1})))
        # header (13 bytes), empty token table (4), influence count (4),
        # then each point: u32 id + 2 float64 coordinates
        second = 13 + 4 + 4 + (4 + 16)
        blob[second : second + 4] = (3).to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match="repeats") as err:
            load_model(bytes(blob))
        assert err.value.offset == second

    def test_repeated_source_block_rejected(self):
        model = EmbeddingModel(
            1, "independent", np.zeros((4, 1)), {0: 0, 1: 1}, spaces={0: {5: 2}, 1: {5: 3}}
        )
        blob = bytearray(save_model(model))
        # header, tokens, influence block of two 12-byte points, space count,
        # then source 0's block (u32 source, u32 count, one point)
        second = 13 + 4 + 4 + 2 * 12 + 4 + (4 + 4 + 12)
        assert blob[second : second + 4] == (1).to_bytes(4, "little")
        blob[second : second + 4] = (0).to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match="repeats") as err:
            load_model(bytes(blob))
        assert err.value.offset == second

    def test_id_past_token_table_rejected_at_its_offset(self):
        model = EmbeddingModel(
            2, "single_space", np.zeros((2, 2)), {0: 0, 5: 1}, tokens=("a", "b")
        )
        blob = save_model(model)
        # header, token count and two 1-byte tokens, influence count, point 0
        bad = 13 + 4 + 2 * (4 + 1) + 4 + (4 + 16)
        assert blob[bad : bad + 4] == (5).to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match="token table") as err:
            load_model(blob)
        assert err.value.offset == bad

    def test_repeated_token_rejected_at_its_length(self):
        model = EmbeddingModel(
            2, "single_space", np.zeros((2, 2)), {0: 0, 1: 1}, tokens=("ab", "ac")
        )
        blob = bytearray(save_model(model))
        # header, token count, then token 0 as u32 length + 2 bytes
        second = 13 + 4 + (4 + 2)
        assert blob[second + 4 : second + 6] == b"ac"
        blob[second + 5] = ord("b")
        with pytest.raises(ModelFormatError, match="repeats") as err:
            load_model(bytes(blob))
        assert err.value.offset == second

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected_at_its_offset(self, value):
        model = EmbeddingModel(2, "single_space", np.zeros((2, 2)), {0: 0, 1: 1})
        # header, empty token table, influence count, then u32 id + coords
        first = 13 + 4 + 4 + 4
        for bad in (first, first + 8 + 4 + 8 + 8):  # point 0 dim 0, point 1 dim 1
            blob = bytearray(save_model(model))
            blob[bad : bad + 8] = struct.pack("<d", value)
            with pytest.raises(ModelFormatError, match="finite") as err:
                load_model(bytes(blob))
            assert err.value.offset == bad


@st.composite
def _models(draw):
    """Any savable model: every variant, with or without a token table."""
    variant = draw(st.sampled_from(VARIANTS))
    dimension = draw(st.integers(1, 3))
    # Tokens over a small alphabet often differ in one byte, so byte
    # overwrites can turn one into another.
    tokens = tuple(draw(st.lists(st.text("ab\u00e9", max_size=3), max_size=6, unique=True)))
    ids = st.integers(0, len(tokens) - 1) if tokens else st.integers(0, 2**32 - 1)
    blocks = st.lists(ids, max_size=4, unique=True)
    influence = draw(blocks)
    spaces = shared = None
    points = list(influence)
    if variant == "independent":
        sources = draw(st.lists(st.sampled_from(influence), unique=True)) if influence else []
        spaces = {s: draw(blocks) for s in sources}
        for space in spaces.values():
            points += space
    elif variant == "shared_susceptibility":
        shared = draw(blocks)
        points += shared
    coords = draw(arrays(np.float64, (len(points), dimension),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    rows = iter(range(len(points)))

    def block(users):
        return {u: next(rows) for u in users}

    influence = block(influence)
    if spaces is not None:
        spaces = {s: block(users) for s, users in spaces.items()}
    if shared is not None:
        shared = block(shared)
    return EmbeddingModel(dimension, variant, coords, influence,
                          spaces=spaces, shared_space=shared, tokens=tokens)


class TestModelFileProperties:
    @settings(max_examples=60)
    @given(model=_models())
    def test_round_trip_is_bit_exact(self, model):
        blob = save_model(model)
        again = load_model(blob)
        assert again == model
        assert again.tokens == model.tokens
        assert save_model(again) == blob

    @settings(max_examples=100)
    @given(model=_models())
    def test_every_truncation_fails_at_or_before_the_cut(self, model):
        blob = save_model(model)
        for cut in range(len(blob)):
            with pytest.raises(ModelFormatError) as err:
                load_model(blob[:cut])
            assert err.value.offset <= cut

    @settings(max_examples=150)
    @given(model=_models(), mask=st.integers(1, 255))
    def test_every_byte_overwrite_fails_cleanly_or_resaves_exactly(self, model, mask):
        blob = save_model(model)
        for at in range(len(blob)):
            damaged = bytearray(blob)
            damaged[at] ^= mask
            try:
                loaded = load_model(bytes(damaged))
            except ModelFormatError:
                continue
            assert len(set(loaded.tokens)) == len(loaded.tokens)
            assert save_model(loaded) == bytes(damaged)


def test_construction_validates_rows_and_finiteness():
    with pytest.raises(ModelError):
        EmbeddingModel(2, "independent", np.zeros((1, 2)), {0: 5}, spaces={})
    with pytest.raises(ModelError):
        EmbeddingModel(2, "independent", np.array([[np.nan, 0.0]]), {0: 0}, spaces={})
    with pytest.raises(ModelError):
        EmbeddingModel(2, "imaginary", np.zeros((0, 2)), {})
    with pytest.raises(ModelError, match="duplicate tokens"):
        EmbeddingModel(2, "single_space", np.zeros((0, 2)), {}, tokens=("a", "b", "a"))
