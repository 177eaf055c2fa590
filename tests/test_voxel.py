import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import (
    EventStream,
    ParameterError,
    ShapeError,
    density,
    seeded_rng,
    voxelize,
)

from _oracles import scalar_voxelize


def _stream(x, y, t, p, width=4, height=4):
    t = np.asarray(t, dtype=np.int64)
    span = (int(t.min()), int(t.max())) if len(t) else (0, 1)
    return EventStream(x, y, t, p, width, height, span[0], span[1])


def _random_stream(rng, n=200, width=8, height=8):
    t = np.sort(rng.integers(0, 10_000, size=n))
    return EventStream(
        rng.integers(0, width, size=n),
        rng.integers(0, height, size=n),
        t,
        rng.choice([-1, 1], size=n),
        width,
        height,
        int(t.min()),
        int(t.max()),
    )


class TestVoxelize:
    def test_bins_must_be_positive(self):
        with pytest.raises(ParameterError):
            voxelize(_stream([0], [0], [5], [1]), 0)

    def test_empty_stream_is_zero_grid(self):
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream(empty, empty, empty, empty, 4, 4, 0, 10)
        grid = voxelize(stream, 5)
        assert grid.shape == (5, 4, 4)
        assert not grid.any()

    def test_triangular_kernel_split(self):
        # Normalized coord 1.5 of five bins splits evenly between bins 1, 2.
        stream = _stream([0, 1, 2], [0, 0, 0], [0, 375, 1000], [1, 1, 1])
        grid = voxelize(stream, 5)
        assert grid[1, 0, 1] == pytest.approx(0.5)
        assert grid[2, 0, 1] == pytest.approx(0.5)
        # Endpoints map to bins 0 and 4 with unit weight.
        assert grid[0, 0, 0] == pytest.approx(1.0)
        assert grid[4, 0, 2] == pytest.approx(1.0)

    def test_integer_coord_lands_in_single_bin(self):
        # Normalized time 0.5 with B=5 gives coord exactly 2.0: no split.
        stream = _stream([0, 1, 2], [0, 0, 0], [0, 500, 1000], [1, -1, 1])
        grid = voxelize(stream, 5)
        assert grid[2, 0, 1] == pytest.approx(-1.0)
        assert grid[1, 0, 1] == 0.0
        assert grid[3, 0, 1] == 0.0

    def test_simultaneous_events_fill_bin_zero(self):
        stream = _stream([0, 1], [0, 0], [7, 7], [1, 1])
        grid = voxelize(stream, 5)
        assert grid[0].sum() == pytest.approx(2.0)
        assert not grid[1:].any()

    def test_single_event_goes_to_bin_zero(self):
        stream = _stream([2], [3], [42], [-1])
        grid = voxelize(stream, 3)
        assert grid[0, 3, 2] == pytest.approx(-1.0)
        assert np.abs(grid).sum() == pytest.approx(1.0)

    def test_tie_order_does_not_change_grid(self):
        a = _stream([0, 1, 2], [0, 0, 0], [5, 5, 5], [1, -1, 1])
        b = _stream([2, 1, 0], [0, 0, 0], [5, 5, 5], [1, -1, 1])
        assert np.array_equal(voxelize(a, 4), voxelize(b, 4))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), bins=st.integers(1, 9))
    def test_mass_conservation(self, seed, bins):
        rng = seeded_rng(seed)
        stream = _random_stream(rng)
        grid = voxelize(stream, bins)
        assert grid.sum() == pytest.approx(stream.p.sum(), rel=1e-5, abs=1e-9)

    def test_values_finite(self):
        rng = seeded_rng(3)
        grid = voxelize(_random_stream(rng), 5)
        assert np.isfinite(grid).all()


@st.composite
def _tied_streams(draw):
    """Sorted streams on a small non-square sensor with many repeated stamps.

    Stamps come from a short range so that events tie in t, share pixels and
    land exactly on bin centres; the last row and column are drawn often.
    """
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = draw(st.integers(0, 60))
    t_start = draw(st.integers(0, 50))
    span = draw(st.sampled_from([0, 1, 4, 8, 12, 1000, 999_983]))
    t = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    x = draw(st.lists(st.sampled_from([0, width - 1, width // 2]), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    t = np.asarray(t, dtype=np.int64) + t_start
    return EventStream(x, y, t, p, width, height, t_start, t_start + span)


@pytest.mark.parametrize("bins", [1, 2, 5])
@pytest.mark.parametrize(
    "t", [[], [7], [3, 3, 3], [0, 250, 1000, 1000]], ids=["empty", "one", "one-time", "last-bin"]
)
def test_grid_owns_exactly_bins_planes(bins, t):
    # The last two events sit exactly on the last bin, whose upper term has
    # weight 0; cancelling polarities leave +0.0 in their cell.
    n = len(t)
    stream = _stream([1] * n, [2] * n, t, [1, -1, 1, -1][:n])
    grid = voxelize(stream, bins)
    assert grid.shape == (bins, 4, 4)
    assert grid.base is None
    assert grid.tobytes() == scalar_voxelize(stream, bins).tobytes()


class TestVoxelizeOracle:
    @settings(max_examples=150, deadline=None)
    @given(stream=_tied_streams(), bins=st.integers(1, 9))
    def test_matches_scalar_oracle_bytes(self, stream, bins):
        assert voxelize(stream, bins).tobytes() == scalar_voxelize(stream, bins).tobytes()

    def test_random_stream_matches_scalar_oracle_bytes(self):
        stream = _random_stream(seeded_rng(8), n=2000, width=9, height=5)
        for bins in (1, 2, 5):
            assert voxelize(stream, bins).tobytes() == scalar_voxelize(stream, bins).tobytes()


class TestDensity:
    def test_requires_three_dims(self):
        with pytest.raises(ShapeError):
            density(np.zeros((4, 4)))

    def test_zero_grid(self):
        assert density(np.zeros((5, 4, 4))) == 0.0

    def test_single_active_pixel_of_four(self):
        grid = np.zeros((3, 2, 2))
        grid[1, 0, 1] = 0.25
        assert density(grid) == pytest.approx(0.25)

    def test_all_active(self):
        assert density(np.ones((2, 3, 3))) == 1.0

    def test_polarity_flip_invariant(self):
        rng = seeded_rng(11)
        grid = voxelize(_random_stream(rng), 5)
        assert density(grid) == density(-grid)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_bounded(self, seed):
        rng = seeded_rng(seed)
        d = density(voxelize(_random_stream(rng, n=40), 5))
        assert 0.0 <= d <= 1.0

    def test_cancelled_pixel_counts_inactive(self):
        # Opposite polarities at one pixel and timestamp cancel in-bin.
        stream = _stream([1, 1], [1, 1], [5, 5], [-1, 1], width=2, height=2)
        grid = voxelize(stream, 5)
        assert density(grid) == 0.0
