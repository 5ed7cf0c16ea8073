"""Unit and property tests for the AABB value type."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry.aabb import AABB, union_all


def boxes(dims: int = 3, span: float = 100.0):
    """Hypothesis strategy for valid boxes."""

    def build(corners):
        lo = [min(a, b) for a, b in corners]
        hi = [max(a, b) for a, b in corners]
        return AABB(lo, hi)

    coordinate = st.floats(-span, span, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coordinate, coordinate), min_size=dims, max_size=dims).map(build)


class TestConstruction:
    def test_valid(self):
        box = AABB((0, 0), (1, 2))
        assert box.lo == (0.0, 0.0)
        assert box.hi == (1.0, 2.0)
        assert box.dims == 2

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="lo > hi"):
            AABB((1, 0), (0, 1))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            AABB((0, 0), (1, 1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            AABB((), ())

    def test_immutable(self):
        box = AABB((0,), (1,))
        with pytest.raises(AttributeError):
            box.lo = (5,)

    def test_from_point(self):
        box = AABB.from_point((1, 2, 3))
        assert box.is_degenerate()
        assert box.volume() == 0.0

    def test_from_center_scalar(self):
        box = AABB.from_center((5, 5), 1.0)
        assert box.lo == (4.0, 4.0)
        assert box.hi == (6.0, 6.0)

    def test_from_center_vector(self):
        box = AABB.from_center((5, 5), (1.0, 2.0))
        assert box.lo == (4.0, 3.0)
        assert box.hi == (6.0, 7.0)

    def test_from_center_mismatch(self):
        with pytest.raises(ValueError):
            AABB.from_center((5, 5), (1.0, 2.0, 3.0))


class TestPredicates:
    def test_intersects_overlap(self):
        assert AABB((0, 0), (2, 2)).intersects(AABB((1, 1), (3, 3)))

    def test_intersects_touching_faces(self):
        assert AABB((0, 0), (1, 1)).intersects(AABB((1, 0), (2, 1)))

    def test_disjoint(self):
        assert not AABB((0, 0), (1, 1)).intersects(AABB((2, 2), (3, 3)))

    def test_contains_point_boundary(self):
        box = AABB((0, 0), (1, 1))
        assert box.contains_point((0, 0))
        assert box.contains_point((1, 1))
        assert not box.contains_point((1.0001, 0.5))

    def test_contains_box(self):
        outer = AABB((0, 0), (10, 10))
        assert outer.contains_box(AABB((1, 1), (9, 9)))
        assert outer.contains_box(outer)
        assert not outer.contains_box(AABB((1, 1), (11, 9)))


class TestCombination:
    def test_union(self):
        union = AABB((0, 0), (1, 1)).union(AABB((2, 2), (3, 3)))
        assert union == AABB((0, 0), (3, 3))

    def test_intersection_some(self):
        overlap = AABB((0, 0), (2, 2)).intersection(AABB((1, 1), (3, 3)))
        assert overlap == AABB((1, 1), (2, 2))

    def test_intersection_none(self):
        assert AABB((0, 0), (1, 1)).intersection(AABB((5, 5), (6, 6))) is None

    def test_overlap_volume(self):
        assert AABB((0, 0), (2, 2)).overlap_volume(AABB((1, 1), (3, 3))) == 1.0
        assert AABB((0, 0), (1, 1)).overlap_volume(AABB((5, 5), (6, 6))) == 0.0

    def test_enlargement(self):
        box = AABB((0, 0), (1, 1))
        assert box.enlargement(AABB((0, 0), (1, 1))) == 0.0
        assert box.enlargement(AABB((0, 0), (2, 1))) == pytest.approx(1.0)

    def test_expanded(self):
        grown = AABB((0, 0), (1, 1)).expanded(0.5)
        assert grown == AABB((-0.5, -0.5), (1.5, 1.5))

    def test_union_all(self):
        hull = union_all([AABB((0,), (1,)), AABB((5,), (6,)), AABB((-2,), (-1,))])
        assert hull == AABB((-2,), (6,))

    def test_union_all_empty(self):
        with pytest.raises(ValueError):
            union_all([])


def _naive_union(a: AABB, b: AABB) -> AABB:
    return AABB(
        [min(x, y) for x, y in zip(a.lo, b.lo)], [max(x, y) for x, y in zip(a.hi, b.hi)]
    )


def _naive_volume(lo, hi) -> float:
    vol = 1.0
    for x, y in zip(lo, hi):
        vol *= y - x
    return vol


# Coordinates spanning tiny, unit and large magnitudes, signed, with repeats
# likely (hypothesis reuses drawn values), so degenerate axes show up often.
_mixed_coordinate = st.one_of(
    st.floats(-1e-9, 1e-9, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -1e5]),
)


@st.composite
def mixed_boxes(draw, dims: int = 3):
    """Valid boxes, degenerate on a drawn subset of axes."""
    lo, hi = [], []
    for _ in range(dims):
        a = draw(_mixed_coordinate)
        b = a if draw(st.booleans()) else draw(_mixed_coordinate)
        lo.append(min(a, b))
        hi.append(max(a, b))
    return AABB(lo, hi)


class TestCombineKernelsExact:
    """``union``, ``union_all`` and ``enlargement`` skip validation and
    intermediate boxes; they must still equal the naive formulas exactly."""

    @given(mixed_boxes(), mixed_boxes())
    def test_union_bit_identical(self, a, b):
        union = a.union(b)
        naive = _naive_union(a, b)
        assert type(union) is AABB
        assert union.lo == naive.lo and union.hi == naive.hi
        assert union == naive and hash(union) == hash(naive)
        assert all(type(c) is float for c in union.lo + union.hi)

    @given(st.lists(mixed_boxes(), min_size=1, max_size=12))
    def test_union_all_equals_pairwise_fold(self, boxes_):
        acc = boxes_[0]
        for box in boxes_[1:]:
            acc = _naive_union(acc, box)
        hull = union_all(boxes_)
        assert type(hull) is AABB
        assert hull.lo == acc.lo and hull.hi == acc.hi
        assert hull == acc and hash(hull) == hash(acc)
        # Generators and tuples take the same path as lists.
        assert union_all(iter(boxes_)) == hull
        assert union_all(tuple(boxes_)) == hull

    @given(mixed_boxes(), mixed_boxes())
    def test_enlargement_bit_identical(self, a, b):
        naive = _naive_union(a, b)
        expected = _naive_volume(naive.lo, naive.hi) - _naive_volume(a.lo, a.hi)
        assert a.enlargement(b) == expected

    @given(mixed_boxes(dims=2), mixed_boxes(dims=2))
    def test_enlargement_bit_identical_2d(self, a, b):
        naive = _naive_union(a, b)
        expected = _naive_volume(naive.lo, naive.hi) - _naive_volume(a.lo, a.hi)
        assert a.enlargement(b) == expected

    def test_union_all_single_box_is_that_box(self):
        box = AABB((0, 1), (2, 3))
        assert union_all([box]) is box

    def test_signed_zero_picks_match_min_max(self):
        a = AABB((0.0,), (0.0,))
        b = AABB((-0.0,), (-0.0,))
        for x, y in ((a, b), (b, a)):
            union = x.union(y)
            naive = _naive_union(x, y)
            assert math.copysign(1.0, union.lo[0]) == math.copysign(1.0, naive.lo[0])
            assert math.copysign(1.0, union.hi[0]) == math.copysign(1.0, naive.hi[0])
            hull = union_all([x, y, x])
            assert math.copysign(1.0, hull.lo[0]) == math.copysign(1.0, naive.lo[0])

    def test_derived_boxes_stay_immutable(self):
        union = AABB((0,), (1,)).union(AABB((2,), (3,)))
        with pytest.raises(AttributeError):
            union.lo = (5.0,)


class TestDistances:
    def test_min_distance_inside(self):
        assert AABB((0, 0), (2, 2)).min_distance_to_point((1, 1)) == 0.0

    def test_min_distance_outside(self):
        assert AABB((0, 0), (1, 1)).min_distance_to_point((4, 5)) == pytest.approx(5.0)

    def test_max_distance(self):
        assert AABB((0, 0), (1, 1)).max_distance_to_point((0, 0)) == pytest.approx(
            math.sqrt(2)
        )

    def test_box_gap(self):
        a = AABB((0, 0), (1, 1))
        b = AABB((4, 5), (6, 7))
        assert a.min_distance_to_box(b) == pytest.approx(5.0)
        assert a.min_distance_to_box(a) == 0.0


class TestValueSemantics:
    def test_eq_hash(self):
        a = AABB((0, 1), (2, 3))
        b = AABB((0, 1), (2, 3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != AABB((0, 1), (2, 4))

    def test_iter_unpack(self):
        lo, hi = AABB((1, 2), (3, 4))
        assert lo == (1.0, 2.0)
        assert hi == (3.0, 4.0)

    def test_repr(self):
        assert "AABB" in repr(AABB((0,), (1,)))


class TestProperties:
    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(boxes(), boxes())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), boxes())
    def test_intersection_iff_intersects(self, a, b):
        assert (a.intersection(b) is not None) == a.intersects(b)

    @given(boxes(), boxes())
    def test_overlap_volume_matches_intersection(self, a, b):
        overlap = a.intersection(b)
        volume = a.overlap_volume(b)
        if overlap is None:
            assert volume == 0.0
        else:
            assert volume == pytest.approx(overlap.volume(), abs=1e-6)

    @given(boxes())
    def test_volume_margin_nonnegative(self, box):
        assert box.volume() >= 0.0
        assert box.margin() >= 0.0

    @given(boxes(), st.floats(0, 10, allow_nan=False))
    def test_expanded_contains_original(self, box, amount):
        assert box.expanded(amount).contains_box(box)

    @given(boxes(), boxes())
    def test_min_distance_zero_iff_intersecting(self, a, b):
        gap = a.min_distance_to_box(b)
        if a.intersects(b):
            assert gap == 0.0
        else:
            assert gap > 0.0
