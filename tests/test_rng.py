import numpy as np
import pytest

from gausscensus import rng
from gausscensus.rng import (
    BLOCK,
    grid_stream,
    sample_stream,
    substream_uniforms,
)


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
