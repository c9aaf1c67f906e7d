"""The data mapping of a logical array into per-tile word images."""
from __future__ import annotations

import numpy as np
import pytest

from machlite.frontend.syntax import DType
from machlite.memwords import encode_words, fold_sum, initial_array, load_words, store_words

NX, NY, WORDS = 3, 2, 64
_rng = np.random.default_rng(5)

# name -> (image shape, word address, logical array, dtype)
CASES = {
    "worker_f32_rank2": ((NX, NY, WORDS), 7,
                         _rng.standard_normal((NX, NY, 4, 5)).astype(np.float32), DType.F32),
    "worker_i16_scalar": ((NX, NY, WORDS), 50,
                          _rng.integers(-300, 300, (NX, NY), dtype=np.int16), DType.I16),
    "controller_ga_f32": ((WORDS,), 3,
                          _rng.standard_normal(5).astype(np.float32), DType.F32),
    "controller_gs_i16": ((WORDS,), 20, np.int16(-7), DType.I16),
}


def stored(name):
    shape, addr, arr, dt = CASES[name]
    tiles = len(shape) - 1
    size = int(np.prod(np.shape(arr)[tiles:], dtype=int)) * dt.words
    image = np.zeros(shape, dtype=np.uint16)
    store_words(image, addr, size, arr, dt)
    return image, addr, size, np.asarray(arr), dt


@pytest.mark.parametrize("name", sorted(CASES))
def test_load_round_trips_store(name):
    image, addr, size, arr, dt = stored(name)
    got = load_words(image, addr, size, dt, arr.shape)
    assert got.dtype == arr.dtype and got.shape == arr.shape
    assert np.array_equal(got, arr)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_tile_holds_its_block_and_nothing_else(name):
    image, addr, size, arr, dt = stored(name)
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
    image, addr, size, arr, dt = stored(name)
    before = image.copy()
    got = load_words(image, addr, size, dt, arr.shape)
    got[...] = 1
    assert np.array_equal(image, before)


def test_scalar_initializer_spreads_to_every_worker():
    got = initial_array(np.float32(2.5), DType.F32, (NX, NY))
    assert got.shape == (NX, NY) and got.dtype == np.float32
    assert (got == 2.5).all()
    got[0, 0] = 0.0                 # a writable array, not a broadcast view
    assert got[1, 1] == 2.5


def test_reduction_fold_is_sequential_float32_and_wrapping_i16():
    # in order and in float32, 1e8 + 1 rounds back to 1e8, so the sum is 0
    f = fold_sum(np.array([1e8, 1.0, -1e8], dtype=np.float32), DType.F32)
    assert f.dtype == np.float32 and f == 0.0
    i = fold_sum(np.array([30000, 30000], dtype=np.int16), DType.I16)
    assert i.dtype == np.int16 and i == -5536
    assert fold_sum((), DType.F32) == 0.0 and fold_sum((), DType.I16) == 0
