"""Box and IntVect algebra: identities that must hold for every operand."""

import numpy as np
import pytest

from amrkit.index_space import Box, IndexType, IntVect, box_diff, box_diffs

from conftest import random_box


def test_intvect_arithmetic_and_order():
    a = IntVect(1, 2, 3)
    b = IntVect(4, -1, 0)
    assert (a + b).coords == (5, 1, 3)
    assert (a - b).coords == (-3, 3, 3)
    assert a.min(b).coords == (1, -1, 0)
    assert a.max(b).coords == (4, 2, 3)
    assert a.all_le(a.max(b)) and a.max(b).all_ge(b)
    assert IntVect.unit(2).prod() == 1
    with pytest.raises(ValueError):
        IntVect()  # dimension must be 1..3


def test_intvect_immutable():
    a = IntVect(1, 2)
    with pytest.raises(AttributeError):
        a.coords = (3, 4)


def test_intvect_is_a_tuple():
    a = IntVect(1, 2)
    assert isinstance(a, tuple) and type(a.coords) is tuple
    assert repr(a) == "IntVect(1, 2)"
    assert repr(Box(IntVect(0, 0), IntVect(3, 3))) == "((0, 0)..(3, 3))[cc]"
    # reflected arithmetic is elementwise, not concatenation or repetition
    assert (1, 1) + a == IntVect(2, 3) and type((1, 1) + a) is IntVect
    assert (5, 5) - a == IntVect(4, 3) and type((5, 5) - a) is IntVect
    assert 2 * a == IntVect(2, 4) and type(2 * a) is IntVect
    assert a - 1 == IntVect(0, 1) and -a == IntVect(-1, -2)
    # ordering and hash are the plain tuple's
    vs = [IntVect(2, -1), IntVect(0, 5), IntVect(0, -3), IntVect(-1, 9)]
    assert sorted(vs) == sorted(v.coords for v in vs)
    assert IntVect(0, 5) < IntVect(1, -9) and IntVect(0, 5) > (0, 4)
    assert all(hash(v) == hash(v.coords) for v in vs)
    assert a == (1, 2)
    # numpy integers come out as int
    b = IntVect(np.int64(3), np.int32(-4))
    assert all(type(x) is int for x in b) and b == (3, -4)
    assert all(type(x) is int for x in IntVect(np.arange(3)))
    with pytest.raises(ValueError):
        IntVect(1, 2, 3, 4)
    with pytest.raises(ValueError):
        IntVect([])
    with pytest.raises(ValueError):
        a + IntVect(1, 2, 3)
    with pytest.raises(AttributeError):
        a.x = 1


def test_box_basics():
    b = Box(IntVect(0, 0), IntVect(3, 1))
    assert tuple(b.extents()) == (4, 2)
    assert b.num_cells() == 8
    assert b.contains(IntVect(3, 1)) and not b.contains(IntVect(4, 1))
    assert Box.empty(2).is_empty()
    assert b.shift(IntVect(1, -1)).lo.coords == (1, -1)


def test_intersection_identities(rng):
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        a = random_box(rng, dim)
        b = random_box(rng, dim)
        c = random_box(rng, dim)
        ab = a.intersect(b)
        # commutativity and idempotence
        assert ab == b.intersect(a)
        assert a.intersect(a) == a
        # associativity
        assert ab.intersect(c) == a.intersect(b.intersect(c))
        # the intersection is the largest box inside both
        if not ab.is_empty():
            assert a.contains_box(ab) and b.contains_box(ab)
            assert a.intersects(b)
        else:
            assert not a.intersects(b)


def test_grow_shrink_round_trip(rng):
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        b = random_box(rng, dim)
        g = int(rng.integers(0, 4))
        assert b.grow(g).grow(-g) == b
        assert b.grow(g).contains_box(b)


def test_refine_coarsen_round_trip(rng):
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        b = random_box(rng, dim)
        r = int(rng.integers(1, 5))
        fine = b.refine(r)
        assert fine.coarsen(r) == b
        assert fine.num_cells() == b.num_cells() * r**dim
        # coarsen alone covers: b is inside coarsen(b).refine(r)
        assert b.coarsen(r).refine(r).contains_box(b)


def test_coarsen_floor_semantics():
    # floor division toward -infinity, so negative cells coarsen correctly
    b = Box(IntVect(-3, -3), IntVect(2, 2))
    c = b.coarsen(2)
    assert c.lo.coords == (-2, -2) and c.hi.coords == (1, 1)


def test_box_diff_partitions(rng):
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        a = random_box(rng, dim)
        b = random_box(rng, dim)
        pieces = box_diff(a, b)
        # pieces are disjoint, inside a, outside b, and with b cover a
        total = sum(p.num_cells() for p in pieces)
        assert total == a.num_cells() - a.intersect(b).num_cells()
        for i, p in enumerate(pieces):
            assert a.contains_box(p)
            assert not p.intersects(b)
            for q in pieces[i + 1 :]:
                assert not p.intersects(q)


def test_box_diffs_match_box_diff(rng):
    # the array form gives box_diff's pieces in box_diff's order, row by
    # row, over disjoint, overlapping, nested, equal and empty pairs
    kinds = set()
    for _ in range(150):
        dim = int(rng.integers(1, 4))
        pairs = []
        for _ in range(int(rng.integers(0, 8))):
            a = random_box(rng, dim, span=6, max_ext=8)
            kind = int(rng.integers(0, 5))
            if kind == 0:
                b = a
            elif kind == 1:
                b = a.grow(-1) if min(a.extents()) > 2 else a
            elif kind == 2:
                b = a.grow(int(rng.integers(0, 3)))
            elif kind == 3:
                b = Box.empty(dim)
            else:
                b = random_box(rng, dim, span=6, max_ext=8)
            kinds.add("equal" if a == b else "nested" if a.contains_box(b) or b.contains_box(a)
                      else "overlap" if a.intersects(b) else "disjoint")
            pairs.append((a, b))
        rows = [[[list(a.lo), list(a.hi)], [list(b.lo), list(b.hi)]] for a, b in pairs]
        arr = np.array(rows, dtype=np.int64).reshape(-1, 2, 2, dim)
        row, lo, hi = box_diffs(arr[:, 0], arr[:, 1])
        got = list(zip(row.tolist(), lo.tolist(), hi.tolist()))
        want = [
            (k, list(p.lo), list(p.hi)) for k, (a, b) in enumerate(pairs) for p in box_diff(a, b)
        ]
        assert got == want
        assert lo.shape == hi.shape == (len(want), dim)
    assert kinds == {"equal", "nested", "overlap", "disjoint"}


def test_index_type_conversion():
    cell = Box(IntVect(0, 0), IntVect(3, 3))
    node = cell.convert(IndexType.node(2))
    assert node.hi.coords == (4, 4)
    assert node.convert(IndexType.cell(2)) == cell
    facex = cell.convert(IndexType.face(2, 0))
    assert facex.hi.coords == (4, 3)
    assert facex.ixtype != cell.ixtype


def test_cells_iteration_row_major():
    b = Box(IntVect(0, 0), IntVect(1, 1))
    assert [tuple(c) for c in b.cells()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
