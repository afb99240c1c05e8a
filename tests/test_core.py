import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppchange import (
    ChangePointSet,
    CoefficientSequence,
    DataError,
    EventSeries,
    Interval,
    ModelConfig,
    change_points_of,
    induced_partition,
    min_spacing_and_jump,
)


class TestEventSeries:
    def test_basic(self):
        s = EventSeries(np.array([[1, 2, 3], [0, 0, 1]]))
        assert s.M == 2 and s.T == 3

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            EventSeries(np.array([[1, -2], [0, 0]]))

    def test_rejects_fractional(self):
        with pytest.raises(DataError):
            EventSeries(np.array([[1.5, 2.0], [0.0, 0.0]]))

    def test_accepts_integral_floats(self):
        s = EventSeries(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert s.counts.dtype == np.int64

    def test_rejects_single_time_point(self):
        with pytest.raises(DataError):
            EventSeries(np.array([[1], [2]]))

    def test_rejects_bad_source(self):
        with pytest.raises(DataError):
            EventSeries(np.array([[1, 2]]), source="guessed")

    def test_immutable(self):
        s = EventSeries(np.array([[1, 2], [3, 4]]))
        with pytest.raises(ValueError):
            s.counts[0, 0] = 9


class TestModelConfig:
    def test_rejects_nonfinite_v(self):
        with pytest.raises(ValueError):
            ModelConfig(v=float("inf"), clip=5.0)

    def test_rejects_nonpositive_clip(self):
        with pytest.raises(ValueError):
            ModelConfig(v=0.0, clip=0.0)


class TestCoefficientSequence:
    def test_change_points_and_lookup(self):
        a = np.eye(2) * 0.5
        b = -a
        seq = CoefficientSequence(((1, a), (51, b)))
        assert seq.change_points == (51,)
        assert seq.K == 1
        assert np.array_equal(seq.matrix_at(50), a)
        assert np.array_equal(seq.matrix_at(51), b)
        assert np.array_equal(seq.matrix_at(200), b)

    def test_first_start_must_be_one(self):
        with pytest.raises(ValueError):
            CoefficientSequence(((2, np.eye(2) * 0.5),))

    def test_starts_strictly_increasing(self):
        a = np.eye(2) * 0.5
        with pytest.raises(ValueError):
            CoefficientSequence(((1, a), (5, -a), (5, a)))

    def test_row_norm_bound(self):
        ok = np.full((2, 2), 0.5)  # row l1 exactly 1
        CoefficientSequence(((1, ok),))
        bad = ok.copy()
        bad[0, 0] = 0.5 + 1e-10  # row l1 = 1 + 1e-10 > 1 + 1e-12
        with pytest.raises(ValueError):
            CoefficientSequence(((1, bad),))

    def test_row_norm_within_tolerance(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0 + 5e-13
        CoefficientSequence(((1, a),))

    def test_equal_consecutive_rejected(self):
        a = np.eye(2) * 0.5
        with pytest.raises(ValueError):
            CoefficientSequence(((1, a), (5, a.copy())))


class TestInterval:
    def test_lengths(self):
        i = Interval(3, 7)
        assert i.length == 5 and i.transitions == 4

    def test_length_one_is_representable(self):
        assert Interval(4, 4).length == 1

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            Interval(0, 4)


class TestChangePointSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ChangePointSet((7, 3))

    def test_rejects_point_one(self):
        with pytest.raises(ValueError):
            ChangePointSet((1, 5))


class TestInducedPartition:
    def test_empty_set_single_block(self):
        assert induced_partition(ChangePointSet(()), 10) == [Interval(1, 10)]

    def test_single_split(self):
        assert induced_partition(ChangePointSet((4,)), 10) == [
            Interval(1, 3),
            Interval(4, 10),
        ]

    def test_two_splits(self):
        assert induced_partition(ChangePointSet((3, 7)), 9) == [
            Interval(1, 2),
            Interval(3, 6),
            Interval(7, 9),
        ]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            induced_partition(ChangePointSet((11,)), 10)

    def test_adjacent_points_give_length_one_block(self):
        blocks = induced_partition(ChangePointSet((2, 3)), 5)
        assert [b.length for b in blocks] == [1, 1, 3]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, data):
        T = data.draw(st.integers(min_value=2, max_value=60))
        pts = data.draw(
            st.lists(st.integers(min_value=2, max_value=T), unique=True, max_size=12)
        )
        cps = ChangePointSet(tuple(sorted(pts)))
        blocks = induced_partition(cps, T)
        assert change_points_of(blocks) == cps
        # blocks tile [1, T] consecutively and disjointly
        assert blocks[0].start == 1 and blocks[-1].end == T
        assert len(blocks) == len(cps.points) + 1
        for left, right in zip(blocks, blocks[1:]):
            assert right.start == left.end + 1
        assert all(b.length >= 1 for b in blocks)


class TestMinSpacingAndJump:
    def test_no_change_points(self):
        seq = CoefficientSequence(((1, np.eye(3) * 0.4),))
        assert min_spacing_and_jump(seq, 100) == (100, None)

    def test_two_equal_segments(self):
        # Diagonal +/-0.5 matrices: the difference is the identity, Frobenius
        # norm sqrt(2).  Spacing counts the boundary segments.
        a = np.eye(2) * 0.5
        seq = CoefficientSequence(((1, a), (51, -a)))
        delta, kappa = min_spacing_and_jump(seq, 100)
        assert delta == 50
        assert kappa == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_dense_pm_half_matrices(self):
        # All four entries flip from +0.5 to -0.5: difference is the all-ones
        # matrix, Frobenius norm 2.
        a = np.full((2, 2), 0.5)
        seq = CoefficientSequence(((1, a), (51, -a)))
        _, kappa = min_spacing_and_jump(seq, 100)
        assert kappa == pytest.approx(2.0, abs=1e-14)

    def test_uneven_spacing(self):
        a = np.eye(2) * 0.5
        seq = CoefficientSequence(((1, a), (4, -a), (20, a)))
        delta, _ = min_spacing_and_jump(seq, 25)
        assert delta == 3  # segments: [1,3], [4,19], [20,25] plus boundary rule

    def test_rejects_sequence_beyond_T(self):
        a = np.eye(2) * 0.5
        seq = CoefficientSequence(((1, a), (51, -a)))
        with pytest.raises(ValueError):
            min_spacing_and_jump(seq, 40)
