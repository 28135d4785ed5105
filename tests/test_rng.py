import numpy as np
import pytest

from gausscensus import rng
from gausscensus.rng import (
    BLOCK,
    grid_stream,
    grid_uniforms,
    substream_uniforms,
    third_block_uniforms,
)

from oracles import sample_stream


@pytest.mark.parametrize("seed,index", [(1, 0), (1, 1), (20250819, 12345),
                                        (2**64 - 1, 7), (0, 2**63)])
def test_substream_matches_generator(seed, index):
    ours = substream_uniforms(seed, index, 1, width=10)[0]
    ref = sample_stream(seed, index).random(10)
    assert ours.tolist() == ref.tolist()


def test_width_three_matches_generator():
    ours = substream_uniforms(5, 99, 1, width=3)[0]
    ref = sample_stream(5, 99).random(3)
    assert ours.tolist() == ref.tolist()


def test_rows_are_independent_of_batching():
    whole = substream_uniforms(7, 1000, 64, width=10)
    first = substream_uniforms(7, 1000, 10, width=10)
    rest = substream_uniforms(7, 1010, 54, width=10)
    assert np.array_equal(whole, np.vstack([first, rest]))


def test_uniforms_in_unit_interval():
    u = substream_uniforms(3, 0, 256, width=10)
    assert u.shape == (256, 10)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_grid_stream_distinct_from_sample_stream():
    a = sample_stream(11, 4).random(6)
    b = grid_stream(11, 4).random(6)
    assert not np.array_equal(a, b)


def test_grid_stream_reproducible():
    a = grid_stream(11, 4).random(6)
    b = grid_stream(11, 4).random(6)
    assert np.array_equal(a, b)


def test_seed_bounds_checked():
    with pytest.raises(ValueError):
        substream_uniforms(-1, 0, 1)
    with pytest.raises(ValueError):
        substream_uniforms(2**64, 0, 1)


def test_block_constant_value():
    assert BLOCK == 65536


def _reference_rows(seed, start, count, width):
    # One numpy Philox Generator per sample, as the census defines them.
    return [sample_stream(seed, start + i).random(width).tolist() for i in range(count)]


class TestChunkedKernel:
    """substream_uniforms against numpy's Philox, row by row."""

    @pytest.mark.parametrize("width", range(1, 13))
    def test_every_width(self, width):
        # 1 to 3 counter blocks, with full and partial last blocks.
        ours = substream_uniforms(20250819, 4090, 9, width=width)
        assert ours.shape == (9, width)
        assert ours.tolist() == _reference_rows(20250819, 4090, 9, width)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_counts_around_the_chunk(self, offset):
        count = rng._CHUNK + offset
        ours = substream_uniforms(11, 300, count, width=10)
        assert ours.shape == (count, 10)
        assert ours.tolist() == _reference_rows(11, 300, count, 10)

    @pytest.mark.parametrize("count", [0, 1])
    def test_tiny_counts(self, count):
        ours = substream_uniforms(11, 300, count, width=7)
        assert ours.shape == (count, 7)
        assert ours.tolist() == _reference_rows(11, 300, count, 7)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("start", [2**63, 2**64 - 2])
    def test_extreme_seeds_and_starts(self, seed, start):
        count = min(5, 2**64 - start)
        ours = substream_uniforms(seed, start, count, width=10)
        assert ours.tolist() == _reference_rows(seed, start, count, 10)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_independent_of_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        ours = substream_uniforms(3, 2**40, 37, width=10)
        assert ours.tolist() == _reference_rows(3, 2**40, 37, 10)


@pytest.mark.parametrize(
    "start,count,match",
    [(-1, 1, "start"), (0, -1, "count"), (2**64 - 1, 2, "64-bit"), (2**64, 1, "64-bit")],
)
def test_sample_range_checked(start, count, match):
    with pytest.raises(ValueError, match=match):
        substream_uniforms(1, start, count)


def test_last_sample_index_allowed():
    ours = substream_uniforms(1, 2**64 - 1, 1, width=10)
    assert ours.tolist() == _reference_rows(1, 2**64 - 1, 1, 10)


class TestThirdBlock:
    """third_block_uniforms against numpy's Philox, row by row."""

    @staticmethod
    def _reference(seed, index):
        return [sample_stream(seed, i).random(10)[8:10].tolist() for i in index]

    def test_unsorted_repeated_and_sparse(self):
        index = [9, 3, 3, 1000, 4, 2**40, 3, 65_537]
        ours = third_block_uniforms(20250819, index)
        assert ours.shape == (len(index), 2)
        assert ours.tolist() == self._reference(20250819, index)

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=np.uint64),
                                       np.array([], dtype=np.int64)])
    def test_empty(self, empty):
        assert third_block_uniforms(5, empty).shape == (0, 2)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_extreme_indices(self, as_array):
        index = [2**63, 2**64 - 1, 0, 2**63 - 1]
        if as_array:
            index = np.array(index, dtype=np.uint64)
        ours = third_block_uniforms(2**64 - 1, index)
        assert ours.tolist() == self._reference(2**64 - 1, [2**63, 2**64 - 1, 0, 2**63 - 1])

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_independent_of_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        index = np.array([5 * i * i + 3 for i in range(37)][::-1], dtype=np.int64)
        ours = third_block_uniforms(3, index)
        assert ours.tolist() == self._reference(3, index.tolist())

    @pytest.mark.parametrize("start", [0, 4090, 2**64 - 300])
    def test_columns_of_the_contiguous_draw(self, start):
        index = np.arange(start, start + 300, dtype=np.uint64)
        whole = substream_uniforms(7, start, 300, width=10)
        assert np.array_equal(third_block_uniforms(7, index), whole[:, 8:])

    @pytest.mark.parametrize("index", [[-1], [3, 2**64], np.array([4, -2])])
    def test_index_range_checked(self, index):
        with pytest.raises(ValueError, match="sample indices"):
            third_block_uniforms(1, index)


class TestGridUniforms:
    """grid_uniforms against numpy's Philox at counter 2^64, row by row."""

    @staticmethod
    def _reference(seed, index, width):
        return [grid_stream(seed, i).random(width).tolist() for i in index]

    @pytest.mark.parametrize("width", [1, 4, 25, 26])
    def test_unsorted_repeated_and_sparse(self, width):
        index = [9, 3, 3, 1000, 4, 2**40, 3, 65_537]
        ours = grid_uniforms(20250819, index, width)
        assert ours.shape == (len(index), width)
        assert ours.tolist() == self._reference(20250819, index, width)

    @pytest.mark.parametrize("width", [1, 4, 25, 26])
    def test_numpy_uniform_arithmetic(self, width):
        # lo + (hi - lo) * u is what Generator.uniform(lo, hi, size) draws.
        index = np.arange(300, 340)
        u = grid_uniforms(7, index, width)
        for lo, hi in ((-2.0, 2.0), (-1e-3, 3.7), (5.0, 5.000001)):
            want = [grid_stream(7, i).uniform(lo, hi, width).tolist() for i in index.tolist()]
            assert (lo + (hi - lo) * u).tolist() == want

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=np.uint64),
                                       np.array([], dtype=np.int64)])
    def test_empty(self, empty):
        assert grid_uniforms(5, empty, 25).shape == (0, 25)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_extreme_indices(self, as_array):
        index = [2**63, 2**64 - 1, 0, 2**63 - 1]
        if as_array:
            index = np.array(index, dtype=np.uint64)
        ours = grid_uniforms(2**64 - 1, index, 25)
        assert ours.tolist() == self._reference(2**64 - 1, [2**63, 2**64 - 1, 0, 2**63 - 1], 25)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_independent_of_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        index = np.array([5 * i * i + 3 for i in range(37)][::-1], dtype=np.int64)
        ours = grid_uniforms(3, index, 26)
        assert ours.tolist() == self._reference(3, index.tolist(), 26)

    @pytest.mark.parametrize("index", [[-1], [3, 2**64], np.array([4, -2])])
    def test_index_range_checked(self, index):
        with pytest.raises(ValueError, match="sample indices"):
            grid_uniforms(1, index, 25)


@pytest.mark.parametrize("width", [1, 2, 8, 10, 25])
def test_columns_are_contiguous(width):
    # Each public function returns the transpose of a C-contiguous
    # (width, count) array: the census front end reads whole columns.
    index = np.arange(300, 340)
    draws = [substream_uniforms(7, 300, 40, width), grid_uniforms(7, index, width)]
    if width == 2:
        draws.append(third_block_uniforms(7, index))
    for u in draws:
        assert u.shape == (40, width)
        assert u.T.flags.c_contiguous
