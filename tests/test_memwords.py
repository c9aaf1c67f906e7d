"""The data mapping of a logical array into per-tile word images, the
initializers frozen into them, and the gather family's shared kernels
against an independent per-element oracle."""
from __future__ import annotations

import numpy as np
import pytest

from machlite.diagnostics import SimFault
from machlite.frontend.semantic import GridConfig, declared_shape
from machlite.frontend.syntax import DType, InitSpec, TensorDecl, VarKind
from machlite.memwords import (
    WORKER_WORDS, WordMemory, check_index, encode_words, fold_sum, gather,
    initial_images, materialize_init, scatter, word_view)

from helpers import dense

NX, NY, WORDS = 3, 2, 64
_rng = np.random.default_rng(5)

# name -> (image shape, word address, logical array, dtype): an la of
# memory rank 1 and 2 (declared rank 3 and 4), an ls, a uls, a ga and a gs
CASES = {
    "worker_f32_rank1": ((NX, NY, WORDS), 7,
                         _rng.standard_normal((NX, NY, 6)).astype(np.float32), DType.F32),
    "worker_f32_rank2": ((NX, NY, WORDS), 7,
                         _rng.standard_normal((NX, NY, 4, 5)).astype(np.float32), DType.F32),
    "worker_i16_scalar": ((NX, NY, WORDS), 50,
                          _rng.integers(-300, 300, (NX, NY), dtype=np.int16), DType.I16),
    "worker_f32_uniform_scalar": ((NX, NY, WORDS), 51,
                                  np.full((NX, NY), -1.25, dtype=np.float32), DType.F32),
    "controller_ga_f32": ((WORDS,), 3,
                          _rng.standard_normal(5).astype(np.float32), DType.F32),
    "controller_gs_i16": ((WORDS,), 20, np.int16(-7), DType.I16),
}


# a planned span apart from every case's, as a neighbouring variable's
OTHER_SPAN = (WORDS - 3, 3)


def stored(name):
    """A zeroed word memory that holds the case's span and `OTHER_SPAN`,
    with the case's array written through `word_view`; also the memory's
    dense expansion to the image shape."""
    shape, addr, arr, dt = CASES[name]
    arr = np.asarray(arr)
    tiles = len(shape) - 1
    size = int(np.prod(arr.shape[tiles:], dtype=int)) * dt.words
    image = WordMemory(shape[:-1], [(addr, size), OTHER_SPAN])
    word_view(image, addr, size, dt, arr.shape)[...] = arr
    return image, addr, size, arr, dt


@pytest.mark.parametrize("name", sorted(CASES))
def test_load_round_trips_store(name):
    image, addr, size, arr, dt = stored(name)
    got = word_view(image, addr, size, dt, arr.shape)
    assert got.dtype == arr.dtype and got.shape == arr.shape
    assert np.array_equal(got, arr)


@pytest.mark.parametrize("name", sorted(CASES))
def test_word_view_never_copies(name):
    # numpy's reshape copies silently where a view cannot express the shape
    image, addr, size, arr, dt = stored(name)
    view = word_view(image, addr, size, dt, arr.shape)
    assert np.shares_memory(view, image.words(addr, size))
    view[...] = 0
    assert not any(b.any() for b in image.blocks)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_tile_holds_its_block_and_nothing_else(name):
    shape = CASES[name][0]
    image, addr, size, arr, dt = stored(name)
    image = dense(image, shape)
    if image.ndim == 1:
        assert np.array_equal(image[addr:addr + size], encode_words(arr, dt))
    else:
        for x in range(NX):
            for y in range(NY):
                assert np.array_equal(image[x, y, addr:addr + size],
                                      encode_words(arr[x, y], dt)), (x, y)
    outside = np.delete(image, np.s_[addr:addr + size], axis=-1)
    assert not outside.any()


@pytest.mark.parametrize("name", sorted(CASES))
def test_loaded_array_is_a_copy(name):
    # a readout (`word_view(...).copy()`) aliases no image and no other readout
    shape = CASES[name][0]
    image, addr, size, arr, dt = stored(name)
    before = dense(image, shape)
    got = word_view(image, addr, size, dt, arr.shape).copy()
    again = word_view(image, addr, size, dt, arr.shape).copy()
    got[...] = 1
    assert np.array_equal(dense(image, shape), before)
    assert np.array_equal(again, arr)


def test_scalar_initializer_spreads_to_every_worker():
    worker, _ = initial_images(NX, NY, [(9, 2)], [
        ("worker", 9, 2, DType.F32, (NX, NY), np.float32(2.5))])
    got = word_view(worker, 9, 2, DType.F32, (NX, NY))
    assert got.shape == (NX, NY) and got.dtype == np.float32
    assert (got == 2.5).all()
    got[0, 0] = 0.0                 # each worker holds its own words
    assert got[1, 1] == 2.5


def test_initial_images_hold_each_init_at_its_absolute_address():
    ga = np.arange(5, dtype=np.int16)
    # the uls's span and a mask word after it: one run of words; an la
    # apart from them: a second run
    worker, ctrl = initial_images(NX, NY, [(40, 6), (11, 1), (9, 2)], [
        ("worker", 9, 2, DType.F32, (NX, NY), np.float32(2.5)),   # a uls
        ("controller", 12_300, 5, DType.I16, (5,), ga),
    ])
    assert [b.shape for b in worker.blocks] == [(NX, NY, 3), (NX, NY, 6)]
    assert (worker.starts, worker.ends) == ([9, 40], [12, 46])
    assert [b.shape for b in ctrl.blocks] == [(WORKER_WORDS,)] and ctrl.starts == [0]
    assert {b.dtype.str for b in worker.blocks + ctrl.blocks} == {"<u2"}
    assert (word_view(worker, 9, 2, DType.F32, (NX, NY)) == 2.5).all()
    assert np.array_equal(word_view(ctrl, 12_300, 5, DType.I16, (5,)), ga)
    assert sum(np.count_nonzero(b) for b in worker.blocks) == NX * NY
    assert np.count_nonzero(ctrl.blocks[0]) == 4


def test_spans_that_touch_or_overlap_are_one_block():
    image = WordMemory((), [(20, 1), (16, 2), (8, 4), (0, 16), (30, 0)])
    assert (image.starts, image.ends) == ([0, 20, 30], [18, 21, 30])
    assert [b.shape for b in image.blocks] == [(18,), (1,), (0,)]


def test_a_word_outside_every_span_raises():
    # two la on two banks and the mask word after the first
    image = WordMemory((NX, NY), [(3072, 16), (16, 1), (0, 16)])
    assert (image.starts, image.ends) == ([0, 3072], [17, 3088])
    tile = image.tile(1, 0)
    for addr, size in ((17, 1), (3071, 1), (16, 2), (3071, 2), (3088, 1), (18, 0)):
        with pytest.raises(IndexError, match="not all in one planned span"):
            word_view(image, addr, size, DType.I16, (NX, NY, size))
        with pytest.raises(IndexError, match="not all in one planned span"):
            tile.words(addr, size)
    # a zero-length window that ends at a span's last word is empty
    for addr in (17, 3088):
        assert word_view(image, addr, 0, DType.F32, (NX, NY, 0)).size == 0
        assert tile.words(addr, 0).shape == (0,)
    # a tile's words are live views of the memory's blocks
    tile.words(3072, 16)[...] = 7
    assert (image.blocks[1][1, 0] == 7).all()
    assert np.count_nonzero(image.blocks[1]) == 16 and not image.blocks[0].any()


def test_reduction_fold_is_sequential_float32_and_wrapping_i16():
    # in order and in float32, 1e8 + 1 rounds back to 1e8, so the sum is 0
    f = fold_sum(np.array([1e8, 1.0, -1e8], dtype=np.float32), DType.F32)
    assert f.dtype == np.float32 and f == 0.0
    i = fold_sum(np.array([30000, 30000], dtype=np.int16), DType.I16)
    assert i.dtype == np.int16 and i == -5536
    assert fold_sum((), DType.F32) == 0.0 and fold_sum((), DType.I16) == 0


# variable kind -> (declared shape in its declaration, shape of the variable
# and of its initializer on the NX x NY grid)
KIND_SHAPES = {
    VarKind.LA: ((NX, NY, 4), (NX, NY, 4)),
    VarKind.GA: ((5,), (5,)),
    VarKind.LS: ((), (NX, NY)),
    VarKind.GS: ((), ()),
    VarKind.ULS: ((), ()),
}
SEED, VAR_INDEX = 11, 3


def init_of(form: str, n: int) -> InitSpec:
    """An initializer of `form` for a variable of `n` values."""
    return {"zeros": InitSpec("zeros"),
            "constant": InitSpec("constant", value=-3.0, is_int=True),
            "literal": InitSpec("literal", values=tuple(float(v - 2) for v in range(n))),
            "rand": InitSpec("rand"),
            "randint": InitSpec("randint", lo=-4, hi=9)}[form]


@pytest.mark.parametrize("kind", list(KIND_SHAPES), ids=lambda k: k.value)
def test_declared_shape_of_each_kind(kind):
    decl_shape, shape = KIND_SHAPES[kind]
    decl = TensorDecl("v", kind, decl_shape, DType.F32)
    assert declared_shape(decl, GridConfig(NX, NY)) == shape


@pytest.mark.parametrize("dt", [DType.F32, DType.I16], ids=lambda d: d.value)
@pytest.mark.parametrize("kind", list(KIND_SHAPES), ids=lambda k: k.value)
@pytest.mark.parametrize("form", ["zeros", "constant", "literal", "rand", "randint"])
def test_materialized_init_has_the_variable_shape_and_values(form, kind, dt):
    shape = KIND_SHAPES[kind][1]
    n = int(np.prod(shape, dtype=int))
    got = materialize_init(init_of(form, n), shape, dt, SEED, VAR_INDEX)
    nd = np.float32 if dt is DType.F32 else np.int16
    assert np.shape(got) == shape and got.dtype == nd
    rng = np.random.default_rng([SEED, VAR_INDEX])
    want = {
        "zeros": lambda: np.zeros(shape),
        "constant": lambda: np.full(shape, -3),
        "literal": lambda: np.arange(n).reshape(shape) - 2,  # one value for a gs or uls
        "rand": lambda: rng.random(shape, dtype=np.float32),
        "randint": lambda: rng.integers(-4, 9, shape, dtype=np.int16),
    }[form]()
    assert np.array_equal(got, np.asarray(want).astype(nd))


def test_literal_ls_takes_one_value_per_worker_in_c_order():
    values = tuple(float(v) for v in range(NX * NY))
    got = materialize_init(InitSpec("literal", values=values), (NX, NY), DType.F32, 0, 0)
    assert got[1, 0] == NY and got[NX - 1, NY - 1] == NX * NY - 1


def test_random_inits_draw_from_the_seed_and_the_variable_index():
    def draw(form, seed, k):
        return materialize_init(init_of(form, 0), (NX, NY, 4), DType.F32, seed, k)

    for form in ("rand", "randint"):
        assert np.array_equal(draw(form, SEED, VAR_INDEX), draw(form, SEED, VAR_INDEX))
        assert not np.array_equal(draw(form, SEED, VAR_INDEX), draw(form, SEED, VAR_INDEX + 1))
        assert not np.array_equal(draw(form, SEED, VAR_INDEX), draw(form, SEED + 1, VAR_INDEX))


# --- the gather family's kernels against a per-element oracle ----------------

PE = (1, 2)


def oracle(op: str, src, idx, dst, mul=None):
    """One element at a time, calling no shared kernel: write the window
    `dst` in place, or return the fault text of the first index outside the
    indexed window (the destination of a scatter, the source of a gather),
    writing nothing."""
    kind, flat = ("scatter", dst.flatten()) if op == "scatter" else ("gather", None)
    size = dst.size if op == "scatter" else src.size
    out = np.empty(len(idx), dtype=dst.dtype)
    for k, j in enumerate(int(j) for j in idx):
        if not 0 <= j < size:
            return (f"{kind} index {j} outside window of {size} elements "
                    f"at PE ({PE[0]}, {PE[1]}), element {k}")
        if op == "scatter":
            flat[j] = src.flat[k]
        elif mul is None:
            out[k] = src.flat[j]
        else:
            out[k] = (int(src.flat[j]) * int(mul[k]) + 0x8000) % 0x10000 - 0x8000 \
                if dst.dtype == np.int16 else np.float32(src.flat[j]) * np.float32(mul[k])
    dst[...] = (flat if op == "scatter" else out).reshape(dst.shape)
    return None


def kernels(op: str, src, idx, dst, mul=None):
    """The same step through `check_index`, `gather` and `scatter`."""
    try:
        check_index(op, idx, (dst if op == "scatter" else src).size, *PE)
    except SimFault as e:
        return str(e)
    if op == "scatter":
        scatter(dst, idx, src)
    else:
        dst[...] = gather(src, idx, mul).reshape(dst.shape)
    return None


def windows(rng, base, n: int):
    """Views of `base` holding `n` elements: a flat run, or (when n splits)
    a strided 2-D window."""
    rows, cols = base.shape
    if n and n % 2 == 0 and n // 2 <= cols and rng.random() < 0.5:
        c0 = int(rng.integers(0, cols - n // 2 + 1))
        return lambda a: a[1:3, c0:c0 + n // 2]
    a0 = int(rng.integers(0, base.size - n + 1))
    return lambda a: a.reshape(-1)[a0:a0 + n]


def first(n: int):
    """The view of an array's first `n` elements, flat."""
    return lambda a: a.reshape(-1)[:n]


def agree(op, dt, src, idx, dst_base, dst_win, mul=None):
    """Run oracle and kernels on copies of the destination; assert the same
    fault, or the same words everywhere in the destination array."""
    want_base, got_base = dst_base.copy(), dst_base.copy()
    want = oracle(op, src, idx, dst_win(want_base), mul)
    got = kernels(op, src, idx, dst_win(got_base), mul)
    assert got == want
    assert want_base.tobytes() == got_base.tobytes()
    if want is not None:      # a fault writes nothing
        assert got_base.tobytes() == dst_base.tobytes()


def values(rng, dt, shape):
    if dt is DType.F32:
        return rng.standard_normal(shape).astype(np.float32)
    return rng.integers(-32768, 32768, shape).astype(np.int16)


@pytest.mark.parametrize("dt", [DType.F32, DType.I16], ids=lambda d: d.value)
@pytest.mark.parametrize("op", ["gather", "gather_mul", "scatter"])
def test_kernels_agree_with_the_per_element_oracle(op, dt):
    rng = np.random.default_rng([7, len(op), dt is DType.F32])
    for _ in range(300):
        size, n = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        hi = size + 2 if rng.random() < 0.2 else max(size, 1)
        idx = rng.integers(-1 if hi > size else 0, hi, n).astype(np.int16)
        base = values(rng, dt, (3, 6))
        if op == "scatter":
            src = values(rng, dt, n)
            agree(op, dt, src, idx, base, windows(rng, base, size))
        else:
            src = windows(rng, base, size)(base.copy())
            mul = values(rng, dt, n) if op == "gather_mul" else None
            agree(op, dt, src, idx, values(rng, dt, (3, 6)), windows(rng, base, n), mul)


EDGES = {
    # name -> (op, window size, indices)
    "repeated_scatter_indices": ("scatter", 4, [2, 0, 2, 2, 1, 0]),
    "scatter_out_of_range_first": ("scatter", 4, [4, 0, 1]),
    "scatter_out_of_range_last": ("scatter", 4, [0, 1, -1]),
    "gather_out_of_range_first": ("gather", 4, [-3, 0, 1]),
    "gather_out_of_range_last": ("gather", 4, [0, 1, 4]),
    "empty_window_and_indices": ("gather", 0, []),
    "empty_scatter": ("scatter", 0, []),
    "index_into_an_empty_window": ("scatter", 0, [0]),
}


@pytest.mark.parametrize("dt", [DType.F32, DType.I16], ids=lambda d: d.value)
@pytest.mark.parametrize("name", sorted(EDGES))
def test_kernels_agree_on_the_edges(name, dt):
    op, size, idx = EDGES[name]
    rng = np.random.default_rng(3)
    idx = np.array(idx, dtype=np.int16)
    base = values(rng, dt, (3, 6))
    if op == "scatter":
        agree(op, dt, values(rng, dt, idx.size), idx, base, first(size))
    else:
        agree(op, dt, base.reshape(-1)[:size], idx, values(rng, dt, (3, 6)),
              first(idx.size))


def test_the_last_scatter_write_wins_and_sources_are_read_first():
    dst = np.arange(4, dtype=np.int16)
    scatter(dst, [1, 1, 0], dst[[3, 2, 1]].copy())
    assert dst.tolist() == [1, 2, 2, 3]
    # a source that aliases the destination is read before any write
    a = np.arange(4, dtype=np.float32)
    scatter(a, [1, 2, 3, 0], a)
    assert a.tolist() == [3.0, 0.0, 1.0, 2.0]


def test_gather_mul_wraps_in_i16():
    src = np.array([300, -300, 7], dtype=np.int16)
    mul = np.array([300, 300, 2], dtype=np.int16)
    got = gather(src, np.array([0, 1, 2], dtype=np.int16), mul)
    assert got.dtype == np.int16
    assert got.tolist() == [90000 - 65536, -90000 + 65536, 14]
    with pytest.raises(SimFault) as err:
        check_index("gather", [0, 3], 3, 5, 6)
    assert str(err.value) == "gather index 3 outside window of 3 elements at PE (5, 6), element 1"
