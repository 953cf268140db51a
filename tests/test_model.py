import hashlib
import inspect
import io
import math
import os
import struct
import threading

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
    load_model_file,
    save_model,
    save_model_file,
)
from casembed.model import _InPlace, _parse
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

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("keys", [
        [(-2, -1, 0), (0, -1, 1)],
        [(2**62, 1, 2), (1, 2, 2**62)],
    ], ids=["negative", "beyond-u32"])
    def test_ids_outside_u32_keep_their_values_and_are_not_saved(self, variant, keys):
        model = init_model(_table(*keys), Cfg(2, variant), np.random.default_rng(0))
        sources = {s for s, _, _ in keys}
        users = {u for _, *pair in keys for u in pair}
        every = sources | users
        assert set(model.influence_users()) == (every if variant == "single_space" else sources)
        for source in sources:
            own = {u for s, *pair in keys if s == source for u in pair}
            expected = {"independent": own, "shared_susceptibility": users}.get(variant, every)
            assert set(model.space_of(source)) == expected
        with pytest.raises(ModelError, match="unsigned 32-bit"):
            save_model(model)

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
    ("synthetic", "dominant", "independent"): "2f40dd1aac96a4506a5a01591db770d84eb9544db85fb0ac43fabecbcbf9a1f7",
    ("synthetic", "dominant", "shared_susceptibility"): "72d71cb70fc4f4a80fa6dad554e65d6cf80de856424574e20f340016e56725c1",
    ("synthetic", "dominant", "single_space"): "1a1ecf2e71356fd6728eb188fef4f473c8bc3d2c4b2eb62833d1ce97d77eee7f",
    ("synthetic", "full", "independent"): "445982ca833744a8922e61e4e9dcfdc4b809a9bc0fb168533320ba751266fdaa",
    ("synthetic", "full", "shared_susceptibility"): "70ab23ab9e55d9ad5bb433fab4cffe99b8a75fad8df7bf10495e1008423d1629",
    ("synthetic", "full", "single_space"): "c20e18d89a2e3c23c1a55795482b9e02b05abdcd301c756623ce59be06a107b6",
    ("overlapping", "dominant", "independent"): "d7d16e6c7cf5149ac46d3058f6bd82a9229cf2f282432c8abeb1cae833a9cc73",
    ("overlapping", "dominant", "shared_susceptibility"): "d0ba8613f50a1c8286a8e4141dca992d6e91e21e28e033514883190c91e4c851",
    ("overlapping", "dominant", "single_space"): "afa6ffa6eb8db9b42cc7062ea8e6423b0365baef8e24349f3f22ad4db8956ff9",
    ("overlapping", "full", "independent"): "eb8302f8570bc5d0b12c9dd3fafc1569a96d61a97e10ef70810aa661d60a95f3",
    ("overlapping", "full", "shared_susceptibility"): "fe0a1e1eb7a7ac927cb71ee6cf4288c92c29547659ec61fdee25e75aaa0c08f5",
    ("overlapping", "full", "single_space"): "d5f59295b4f242231eaf3777eedf2c2957088b135f710f12c94f08f25e4e60f1",
}


def _pinned_corpus(name):
    if name == "synthetic":
        world = generate_world(3, 8, 2, seed=5)
        return emit_cascades(world, 6, 5, seed=6, noise=0.3)
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

    def test_absent_for_a_source_without_a_space(self):
        coords = np.array([[0.0], [1.0], [2.0]])
        model = EmbeddingModel(1, "independent", coords, {0: 0, 2: 1}, spaces={0: {1: 2}})
        assert model.influence_point(2) is not None and model.space_of(2) is None
        assert model.susceptibility_point(2, 1) is None
        assert model.distance_sq(2, 1) is None
        assert model.diffusion_kernel(2, 1) is None

    def test_never_equal_to_another_type(self):
        model = EmbeddingModel(1, "independent", np.zeros((1, 1)), {0: 0})
        assert model != "IAEM" and not model == 0


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
        for bad in (0.0, -1.0, math.nan, math.inf):
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_space_views_are_read_only(self, variant):
        model = _random_model(np.random.default_rng(7), variant=variant)
        source = next(iter(model.influence_users()))
        space = model.space_of(source)
        user = next(iter(space))
        with pytest.raises(TypeError):
            space[user] = 0
        with pytest.raises(TypeError):
            del space[user]
        assert model == load_model(save_model(model))

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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_file_round_trip(self, variant, tmp_path):
        model = _random_model(np.random.default_rng(58), dimension=3, variant=variant)
        path = tmp_path / "m.iaem"
        path.write_bytes(b"old")
        save_model_file(model, path)
        assert path.read_bytes() == save_model(model)
        again = load_model_file(path)
        assert again == model  # per-point coordinate bytes compared exactly
        assert again.tokens == model.tokens
        assert [p.name for p in tmp_path.iterdir()] == ["m.iaem"]

    def test_save_holds_one_copy_of_the_file(self, traced_peak):
        """The file is built in the buffer `save_model` returns: with many
        small blocks its peak stays near one file size, where a copy of the
        finished buffer would double it."""
        model = generate_world(40, 50, 32, seed=1)
        blob, peak = traced_peak(save_model, model)
        assert peak < 1.25 * len(blob), peak / len(blob)
        assert isinstance(blob, bytearray)

    def test_load_reads_its_argument_in_place(self, traced_peak):
        """Loading what `save_model` returns makes no copy of the file: its
        peak is the coordinates (about one file size) plus temporaries,
        where a copy of the buffer would add another file size."""
        model = generate_world(40, 50, 32, seed=1)
        blob = save_model(model)
        again, peak = traced_peak(load_model, blob)
        assert again == model
        assert peak < 1.75 * len(blob), peak / len(blob)

    def test_file_load_holds_no_copy_of_the_file(self, tmp_path, traced):
        """`load_model_file` reads the file in pieces into the coordinates:
        its peak is what the model keeps (coordinates, ids, rows and its
        4,002-token tuple, with no `{token: id}` index) plus at most 256 KiB,
        which holds the stream's buffer, one piece and the set the token
        table is checked with, where a copy of the 1.08 MB file would not
        fit."""
        world = generate_world(2, 2000, 32, seed=1)
        path = tmp_path / "world.iaem"
        save_model_file(world, path)
        model, kept, peak = traced(load_model_file, path)
        assert model == world
        arrays = model.coords.nbytes + sum(b.ids.nbytes + b.rows.nbytes for b in model._blocks)
        assert arrays <= kept < arrays + 512 * 1024
        assert peak <= kept + 256 * 1024, (peak - kept) / 1024

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_file_load_reads_a_pipe_whole(self, tmp_path):
        """A pipe has no size to read against, so it is read whole first."""
        model = generate_world(3, 4, 2, seed=2)
        fifo = tmp_path / "m.iaem"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(save_model(model),),
                                  daemon=True)
        writer.start()
        try:
            again = load_model_file(fifo)
        finally:
            writer.join(timeout=10)
        assert again == model and again.tokens == model.tokens
        assert not writer.is_alive()

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_round_trip_from_any_byte_buffer(self, wrap):
        model = generate_world(3, 4, 2, seed=2)
        again = load_model(wrap(bytes(save_model(model))))
        assert again == model
        assert again.tokens == model.tokens

    def test_in_place_stream_is_closed_only_after_close(self):
        """`io.BufferedReader` reads its raw stream's `closed` on every read;
        `_InPlace` holds it as a plain value, so no getter runs there."""
        raw = _InPlace(memoryview(b"abcdef"))
        stream = io.BufferedReader(raw, 4)
        assert inspect.getattr_static(raw, "closed") is False
        assert stream.read(3) == b"abc" and stream.read(3) == b"def" and not stream.closed
        stream.close()
        assert raw.closed is True and stream.closed
        assert inspect.getattr_static(raw, "closed") is True
        with pytest.raises(ValueError):
            stream.read(1)
        assert _InPlace(memoryview(b"")).closed is False  # closing one closes no other

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
            2, "single_space", np.zeros((2, 2)), {0: 0, 1: 1}, tokens=("a", "b")
        )
        blob = bytearray(save_model(model))
        # header, token count and two 1-byte tokens, influence count, point 0
        bad = 13 + 4 + 2 * (4 + 1) + 4 + (4 + 16)
        assert blob[bad : bad + 4] == (1).to_bytes(4, "little")
        blob[bad : bad + 4] = (5).to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match="token table") as err:
            load_model(blob)
        assert err.value.offset == bad

    @pytest.mark.parametrize("ids, index, message", [
        ((0, 9, 0), 1, "past the token table"),
        ((0, 0, 9), 1, "repeats"),
        ((1, 0, 1, 9), 2, "repeats"),
    ])
    def test_first_bad_point_in_block_order_reported(self, ids, index, message):
        tokens = tuple("abcd"[: len(ids)])
        model = EmbeddingModel(1, "single_space", np.zeros((len(ids), 1)),
                               {k: k for k in range(len(ids))}, tokens=tokens)
        blob = bytearray(save_model(model))
        # header, token count and the 1-byte tokens, influence count, then
        # 12-byte points (u32 id + one float64)
        first = 13 + 4 + len(tokens) * (4 + 1) + 4
        for k, user in enumerate(ids):
            blob[first + 12 * k : first + 12 * k + 4] = user.to_bytes(4, "little")
        with pytest.raises(ModelFormatError, match=message) as err:
            load_model(bytes(blob))
        assert err.value.offset == first + 12 * index

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

    @pytest.mark.parametrize("tokens, offset", [
        ([b"ab", b"ab", b"cd"], 13 + 4 + 6),  # the first pair
        ([b"ab", b"cd", b"ef", b"cd"], 13 + 4 + 3 * 6),  # the last token
        (["x\u00e9".encode(), "\u00e8".encode(), "x\u00e9".encode()], 13 + 4 + 7 + 6),
        ([b"a", b"b", b"a", b"b"], 13 + 4 + 2 * 5),  # the first of two repeats
    ])
    def test_repeated_token_rejected_at_its_length_field(self, tokens, offset):
        with pytest.raises(ModelFormatError, match="repeats") as err:
            load_model(_token_table_blob(tokens))
        assert err.value.offset == offset

    @pytest.mark.parametrize("damage", ["invalid UTF-8", "truncated token", "truncated table"])
    def test_repeated_token_reported_before_later_damage(self, damage):
        """The repeat is found once the table is read, yet it is the first
        damaged field in the file, so it is reported over damage after it."""
        tokens = [b"ab", b"ab", b"\xff\xfe" if damage == "invalid UTF-8" else b"cd"]
        blob = _token_table_blob(tokens)
        if damage == "truncated token":
            blob = blob[: 13 + 4 + 2 * 6 + 5]
        elif damage == "truncated table":
            blob = blob[: 13 + 4 + 2 * 6 + 2]
        with pytest.raises(ModelFormatError, match="repeats") as err:
            load_model(blob)
        assert err.value.offset == 13 + 4 + 6

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

    @pytest.mark.parametrize("later", ["trailing bytes", "repeated id", "truncated block"])
    def test_first_damaged_field_in_file_order_reported(self, later):
        """A NaN in the influence block is reported at its own offset, whatever
        damage the file also holds after it."""
        model = EmbeddingModel(2, "independent", np.zeros((6, 2)), {0: 0, 1: 1},
                               spaces={0: {2: 2, 3: 3}, 1: {2: 4, 3: 5}})
        blob = bytearray(save_model(model))
        # header, empty token table, influence count, then 20-byte points
        # (u32 id + two float64); point 0's first coordinate follows its id
        nan = 13 + 4 + 4 + 4
        # then the space count and source 0's block (u32 source, u32 count,
        # two points), source 1's id and count, and its second point
        last = 13 + 4 + 4 + 2 * 20 + 4 + (4 + 4 + 2 * 20) + 4 + 4 + 20
        assert blob[last : last + 4] == (3).to_bytes(4, "little")
        blob[nan : nan + 8] = struct.pack("<d", math.nan)
        if later == "trailing bytes":
            blob += b"\x00"
        elif later == "repeated id":
            blob[last : last + 4] = (2).to_bytes(4, "little")
        else:  # source 1's block declares two points but holds one and a half
            del blob[-1]
        with pytest.raises(ModelFormatError, match="finite") as err:
            load_model(bytes(blob))
        assert err.value.offset == nan

    def test_non_finite_coordinate_in_a_later_block_reported_at_its_offset(self):
        model = EmbeddingModel(1, "shared_susceptibility", np.zeros((3, 1)), {0: 0},
                               shared_space={1: 1, 2: 2})
        blob = bytearray(save_model(model))
        # header, empty token table, influence block of one 12-byte point,
        # the shared count, one point, then the second point's coordinate
        bad = 13 + 4 + 4 + 12 + 4 + 12 + 4
        blob[bad : bad + 8] = struct.pack("<d", math.inf)
        with pytest.raises(ModelFormatError, match="finite") as err:
            load_model(bytes(blob))
        assert err.value.offset == bad


def _token_table_blob(tokens: list[bytes]) -> bytes:
    """A single_space model file, dimension 1, with these raw tokens and no
    points."""
    table = b"".join(struct.pack("<I", len(tok)) + tok for tok in tokens)
    return (b"IAEM" + struct.pack("<IIBI", 1, 1, 2, len(tokens)) + table
            + struct.pack("<I", 0))


@settings(max_examples=200)
@given(tokens=st.lists(st.text("a\u00e9\U0001f600", max_size=2), max_size=6))
def test_token_table_loads_or_fails_at_its_first_repeat(tokens):
    """Distinct tokens load as a tuple in file order; otherwise the first
    token equal to an earlier one fails at its length field's offset."""
    blob = _token_table_blob([tok.encode() for tok in tokens])
    at, seen = 13 + 4, set()
    for tok in tokens:
        if tok in seen:
            with pytest.raises(ModelFormatError, match="repeats") as err:
                load_model(blob)
            assert err.value.offset == at
            return
        seen.add(tok)
        at += 4 + len(tok.encode())
    model = load_model(blob)
    assert type(model.tokens) is tuple and model.tokens == tuple(tokens)


@st.composite
def _models(draw, past_tokens=0):
    """Any savable model: every variant, with or without a token table.
    With `past_tokens`, ids may also run that far past a token table's end."""
    variant = draw(st.sampled_from(VARIANTS))
    dimension = draw(st.integers(1, 3))
    # Tokens over a small alphabet often differ in one byte, so byte
    # overwrites can turn one into another.
    tokens = tuple(draw(st.lists(st.text("ab\u00e9", max_size=3), max_size=6, unique=True)))
    ids = (st.integers(0, len(tokens) - 1 + past_tokens) if tokens
           else st.integers(0, 2**32 - 1))
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


def _loads_alike(data: bytes, path):
    """`load_model_file` on a file of `data` loads a model equal to
    `load_model(data)`'s, or raises its message at its offset; returns the
    error, if any."""
    path.write_bytes(data)
    try:
        expected = load_model(data)
    except ModelFormatError as error:
        with pytest.raises(ModelFormatError) as got:
            load_model_file(path)
        assert (str(got.value), got.value.offset) == (str(error), error.offset)
        return error
    loaded = load_model_file(path)
    assert loaded == expected and loaded.tokens == expected.tokens
    return None


@settings(max_examples=40)
@given(model=_models(), mask=st.integers(1, 255))
def test_file_loads_as_its_bytes_load(tmp_path_factory, model, mask):
    """Every truncation and every byte overwrite: one parser reads both."""
    path = tmp_path_factory.mktemp("differential") / "m.iaem"
    blob = bytes(save_model(model))
    for cut in range(len(blob) + 1):
        _loads_alike(blob[:cut], path)
    for at in range(len(blob)):
        damaged = bytearray(blob)
        damaged[at] ^= mask
        _loads_alike(bytes(damaged), path)


class TestFileInPieces:
    """A file is read through a 64 KiB window: a token longer than the
    window, and blocks of many pieces, load as their bytes do."""

    @pytest.fixture(scope="class")
    def blob(self):
        points = 3000  # 44-byte records: about 1,500 per piece
        tokens = ("x" * 70_000, *(f"u{k}" for k in range(1, points)))
        coords = np.random.default_rng(3).standard_normal((points, 5))
        model = EmbeddingModel(5, "single_space", coords, {k: k for k in range(points)},
                               tokens=tokens)
        return bytes(save_model(model))

    def test_damage_anywhere_is_reported_alike(self, blob, tmp_path):
        path = tmp_path / "m.iaem"
        first = len(blob) - 44 * 3000  # the first point, past the tokens and the count
        last = len(blob) - 44  # the last point
        middle = first + 44 * 1600 + 12  # point 1600's second coordinate
        assert _loads_alike(blob, path) is None
        for cut in (20, 17 + 4 + 65_536, first - 1, first + 44 * 1489 + 7, len(blob) - 1):
            assert _loads_alike(blob[:cut], path).offset <= cut
        past, nan = struct.pack("<I", 2**31), struct.pack("<d", math.nan)
        # within a block, ids are checked before coordinates
        for damage, offset in [([(last, past)], last), ([(last + 4, nan)], last + 4),
                               ([(middle, nan), (last + 4, nan)], middle),
                               ([(middle, nan), (last, past)], last)]:
            damaged = bytearray(blob)
            for at, data in damage:
                damaged[at : at + len(data)] = data
            assert _loads_alike(bytes(damaged), path).offset == offset

    def test_short_read_is_truncation_at_the_offset_reached(self, blob):
        """A file that ends before the size it had when opened, cut inside
        each kind of field: the token count, a token's length, a token,
        point records and an independent model's source id."""
        independent = bytes(save_model(EmbeddingModel(
            2, "independent", np.zeros((2, 2)), {0: 0}, spaces={0: {1: 1}})))
        source = 13 + 4 + 4 + 20 + 4  # header, token count, one influence point, source count
        for data, cuts in [(blob, (0, 15, 17 + 4 + 65_536, 17 + 4 + 70_000 + 2,
                                   len(blob) - 44 * 1500, len(blob) - 1)),
                           (independent, (source + 2,))]:
            for cut in cuts:
                with pytest.raises(ModelFormatError, match="truncated") as err:
                    _parse(io.BytesIO(data[:cut]), len(data))
                assert err.value.offset == cut


@settings(max_examples=200)
@given(model=_models(past_tokens=2))
def test_every_model_save_accepts_loads_back(model):
    # `_models` draws independent sources among the influence users; any
    # other model serves every source, -1 too, from one block
    ids = set(model.influence_users())
    for source in [*ids, -1]:
        ids.update(model.space_of(source) or ())
    if model.tokens and max(ids, default=-1) >= len(model.tokens):
        with pytest.raises(ModelError, match="past the token table"):
            save_model(model)
    else:
        assert load_model(save_model(model)) == model


@pytest.mark.parametrize("model", [
    lambda: EmbeddingModel(1, "single_space", np.zeros((2, 1)), {0: 0, 5: 1}, tokens=("a",)),
    *(lambda variant=variant: init_model(
        CombinationTable([Combination(0, 1, 2, 1, 1.0)], "full", tokens=("a",)),
        Cfg(2, variant), np.random.default_rng(0)) for variant in VARIANTS),
    lambda: EmbeddingModel(1, "independent", np.zeros((2, 1)), {0: 0}, spaces={3: {0: 1}},
                           tokens=("a",)),
], ids=["constructed", *(f"init-{v}" for v in VARIANTS), "source"])
def test_ids_past_the_token_table_refused_at_save(model):
    """A block id or an independent source id past a non-empty token table
    makes a file `load_model` refuses, so `save_model` raises instead."""
    with pytest.raises(ModelError, match="past the token table of 1"):
        save_model(model())


def test_construction_validates_rows_and_finiteness():
    with pytest.raises(ModelError):
        EmbeddingModel(2, "independent", np.zeros((1, 2)), {0: 5}, spaces={})
    with pytest.raises(ModelError):
        EmbeddingModel(2, "independent", np.array([[np.nan, 0.0]]), {0: 0}, spaces={})
    with pytest.raises(ModelError):
        EmbeddingModel(2, "imaginary", np.zeros((0, 2)), {})
    with pytest.raises(ModelError, match="duplicate tokens"):
        EmbeddingModel(2, "single_space", np.zeros((0, 2)), {}, tokens=("a", "b", "a"))
    with pytest.raises(ModelError, match="duplicate tokens"):
        init_model(_table((0, 1, 2), tokens=("a", "b", "a")), Cfg(2), np.random.default_rng(0))


@pytest.mark.parametrize("make, error, match", [
    # A row two points share, or no point holds, makes a model that compares
    # equal to its reload, where every point has its own row, yet trains
    # differently.
    (lambda: EmbeddingModel(2, "independent", np.array([[0.1, 0.0], [0.3, 0.2], [0.0, 0.4]]),
                            {0: 0}, spaces={0: {1: 0, 2: 1, 3: 2}}),
     ModelError, "row 0 belongs to 2 points"),
    (lambda: EmbeddingModel(2, "independent", np.zeros((5, 2)), {0: 0}, spaces={}),
     ModelError, "row 1 belongs to 0 points"),
    (lambda: EmbeddingModel(0, "independent", np.zeros((0, 0)), {}), ModelError,
     "dimension must be at least 1"),
    (lambda: EmbeddingModel(2, "independent", np.zeros((1, 3)), {0: 0}), ModelError,
     r"shape \(P, 2\)"),
    (lambda: EmbeddingModel(2, "independent", np.zeros((0, 2)), {}, shared_space={}),
     ModelError, "per-source spaces"),
    (lambda: EmbeddingModel(2, "shared_susceptibility", np.zeros((0, 2)), {}, spaces={}),
     ModelError, "one shared space"),
    (lambda: EmbeddingModel(2, "single_space", np.zeros((0, 2)), {}, shared_space={}),
     ModelError, "all points as influence"),
    (lambda: init_model(_table((1, 2, 3)), Cfg(2, "imaginary"), np.random.default_rng(0)),
     ModelError, "variant must be one of"),
    (lambda: emit_cascades(generate_world(1, 3, 2, seed=0), 1, 0, seed=0), ValueError,
     "cascade_len must be at least 1"),
], ids=["row-shared", "row-unowned", "dimension", "coords-shape", "independent-shared-space",
        "shared-spaces", "single-space-spaces", "init-variant", "emit-cascade-len"])
def test_invalid_arguments_refused(make, error, match):
    with pytest.raises(error, match=match):
        make()


class TestDimensionField:
    def _blob(self, dim, points=1):
        model = EmbeddingModel(2, "single_space", np.zeros((points, 2)),
                               {u: u for u in range(points)})
        blob = bytearray(save_model(model))
        blob[8:12] = dim.to_bytes(4, "little")
        return bytes(blob)

    def test_zero_dimension_rejected_at_its_field(self):
        with pytest.raises(ModelFormatError, match="dimension must be at least 1") as err:
            load_model(self._blob(0))
        assert err.value.offset == 8

    @pytest.mark.parametrize("dim", [2**28, 2**31, 2**32 - 1])
    def test_hostile_dimension_is_a_format_error(self, dim):
        blob = self._blob(dim)
        with pytest.raises(ModelFormatError, match="truncated") as err:
            load_model(blob)
        # header, empty token table, influence count: the first point
        assert err.value.offset == 13 + 4 + 4

    @pytest.mark.parametrize("from_file", [False, True], ids=["bytes", "file"])
    def test_hostile_dimension_without_points_allocates_nothing_for_it(
        self, from_file, tmp_path, traced_peak
    ):
        """dim = 2**28 makes a point record of over 2 GiB; a file holding no
        point is refused at the dimension, with nothing sized by it made."""
        blob = self._blob(2**28, points=0)
        assert len(blob) < 100
        path = tmp_path / "m.iaem"
        path.write_bytes(blob)

        def refused():
            with pytest.raises(ModelFormatError, match="dimension 268435456 is too large") as err:
                load_model_file(path) if from_file else load_model(blob)
            return err.value

        error, peak = traced_peak(refused)
        assert error.offset == 8
        assert peak < 1 << 17  # the file's 64 KiB window at most

    def test_count_past_the_remaining_bytes_is_truncation(self):
        model = EmbeddingModel(
            1, "independent", np.zeros((4, 1)), {0: 0, 1: 1}, spaces={0: {5: 2}, 1: {5: 3}}
        )
        blob = bytearray(save_model(model))
        count = 13 + 4  # header, empty token table: the influence count
        blob[count : count + 4] = (2**32 - 1).to_bytes(4, "little")
        # 12-byte points: as many as the rest of the file holds, then the cut
        fits = (len(blob) - count - 4) // 12
        with pytest.raises(ModelFormatError, match="truncated") as err:
            load_model(bytes(blob))
        assert err.value.offset == count + 4 + 12 * fits


@pytest.mark.parametrize("user", [-1, 2**32])
def test_unsavable_id_rejected(user):
    models = (
        EmbeddingModel(1, "single_space", np.zeros((1, 1)), {user: 0}),
        EmbeddingModel(1, "independent", np.zeros((2, 1)), {0: 0}, spaces={user: {1: 1}}),
    )
    for model in models:
        with pytest.raises(ModelError, match="32-bit"):
            save_model(model)
