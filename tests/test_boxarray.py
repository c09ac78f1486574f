"""BoxArray: hash-backed queries against brute force, and layout surgery."""

import numpy as np
import pytest

from amrkit import counters
from amrkit.boxarray import BoxArray
from amrkit.index_space import Box, IndexType, IntVect, box_diff

from conftest import box_hits, random_box, random_cover


def brute_intersections(boxes, q):
    out = []
    for i, b in enumerate(boxes):
        ov = b.intersect(q)
        if not ov.is_empty():
            out.append((i, ov))
    return out


def test_validate_rejects_overlap():
    with pytest.raises(ValueError):
        BoxArray([Box(IntVect(0, 0), IntVect(3, 3)), Box(IntVect(3, 3), IntVect(5, 5))])


def test_hash_matches_brute_force(rng):
    for trial in range(60):
        dim = int(rng.integers(1, 4))
        domain = Box(IntVect.zero(dim), IntVect([int(rng.integers(7, 32))] * dim))
        ba = random_cover(rng, domain, nsplits=int(rng.integers(2, 10)))
        for _ in range(5):
            q = random_box(rng, dim, span=20, max_ext=10)
            got = sorted(box_hits(ba, q), key=lambda t: t[0])
            want = sorted(brute_intersections(list(ba), q), key=lambda t: t[0])
            assert got == want


def test_validate_names_lowest_overlapping_pair():
    # box 0 overlaps boxes 2 and 3; box 3 sits in the first hash bin
    boxes = [
        Box(IntVect(0, 0), IntVect(7, 7)),
        Box(IntVect(20, 20), IntVect(23, 23)),
        Box(IntVect(6, 6), IntVect(9, 9)),
        Box(IntVect(-2, -2), IntVect(1, 1)),
    ]
    with pytest.raises(ValueError, match="boxes 0 and 2 overlap"):
        BoxArray(boxes)


def test_batch_intersections_match_brute_force(rng):
    for trial in range(45):
        dim = trial % 3 + 1
        n = int(rng.integers(6, 24))
        lo = [int(rng.integers(-8, 8)) for _ in range(dim)]
        domain = Box(IntVect(lo), IntVect([l + n - 1 for l in lo]))
        ba = random_cover(rng, domain, nsplits=int(rng.integers(1, 10)))
        # many queries miss the layout or lie wholly outside the bin lattice
        queries = [random_box(rng, dim, span=n + 12, max_ext=12) for _ in range(40)]
        corners = [[list(q.lo), list(q.hi)] for q in queries]
        corners.append([[0] * dim, [-1] * dim])  # an empty query
        counters.reset("hash_bins_examined", "hash_queries")
        query, box, olo, ohi = ba.intersections(np.array(corners))
        batch = (counters.get("hash_bins_examined"), counters.get("hash_queries"))
        got = list(zip(query.tolist(), box.tolist(), olo.tolist(), ohi.tolist()))
        want = [
            (m, i, list(ov.lo), list(ov.hi))
            for m, q in enumerate(queries)
            for i, ov in brute_intersections(list(ba), q)
        ]
        assert got == want
        assert olo.shape == ohi.shape == (len(want), dim)
        # a batch of M counts what M one-row batches count
        counters.reset("hash_bins_examined", "hash_queries")
        for q in queries:
            box_hits(ba, q)
        assert batch == (counters.get("hash_bins_examined"), counters.get("hash_queries"))
    empty = ba.intersections(np.zeros((0, 2, dim), dtype=np.int64))
    assert [a.shape[0] for a in empty] == [0, 0, 0, 0]


def test_uncovered_matches_box_diff_loop(rng):
    # each query cut by box_diff by the boxes it meets, ascending index
    for trial in range(45):
        dim = trial % 3 + 1
        domain = Box(IntVect.zero(dim), IntVect([int(rng.integers(6, 20))] * dim))
        ba = random_cover(rng, domain, nsplits=int(rng.integers(1, 10)))
        ba = ba.prune(lambda b: rng.integers(0, 3) == 0)
        queries = [random_box(rng, dim, span=12, max_ext=12) for _ in range(20)]
        queries.append(Box.empty(dim))
        want = []
        for m, q in enumerate(queries):
            pieces = [q] if not q.is_empty() else []
            for _, ov in brute_intersections(list(ba), q):
                pieces = [p for piece in pieces for p in box_diff(piece, ov)]
            want.extend((m, list(p.lo), list(p.hi)) for p in pieces)
        query, lo, hi = ba.uncovered(np.array([[q.lo, q.hi] for q in queries]))
        assert list(zip(query.tolist(), lo.tolist(), hi.tolist())) == want


def test_query_bin_cost_bounded(rng):
    # a query no larger than the hash cell examines at most 3^D bins
    for trial in range(40):
        dim = int(rng.integers(1, 4))
        domain = Box(IntVect.zero(dim), IntVect([31] * dim))
        ba = random_cover(rng, domain, nsplits=8)
        side = max(b.extents()[d] for b in ba for d in range(dim))
        q_lo = [int(rng.integers(0, 32 - 1))] * dim
        q = Box(IntVect(q_lo), IntVect([min(31, l + side - 1) for l in q_lo]))
        counters.reset("hash_bins_examined", "hash_queries")
        box_hits(ba, q)
        assert counters.get("hash_bins_examined") <= 3**dim


def test_owner_at_single_bin(rng):
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect(15, 15))
    ba = random_cover(rng, domain, nsplits=6)
    for _ in range(50):
        p = IntVect([int(rng.integers(-2, 18)) for _ in range(dim)])
        counters.reset("hash_bins_examined")
        got = ba.owner_at(p)
        assert counters.get("hash_bins_examined") <= 1
        want = next((i for i, b in enumerate(ba) if b.contains(p)), None)
        assert got == want


def brute_owner(boxes, p):
    return next((i for i, b in enumerate(boxes) if b.contains(p)), -1)


def test_owners_at_matches_brute_force(rng):
    for trial in range(45):
        dim = trial % 3 + 1
        n = int(rng.integers(6, 24))
        lo = [int(rng.integers(-8, 8)) for _ in range(dim)]
        domain = Box(IntVect(lo), IntVect([l + n - 1 for l in lo]))
        ba = random_cover(rng, domain, nsplits=int(rng.integers(1, 10)))
        if trial % 2:
            # nodal boxes share faces: the lowest containing index wins
            ba = ba.convert(IndexType.node(dim))
        pts = np.array(
            [[int(rng.integers(l - 4, l + n + 4)) for l in lo] for _ in range(200)]
        )
        counters.reset("hash_bins_examined", "hash_queries")
        got = ba.owners_at(pts)
        assert counters.get("hash_bins_examined") == len(pts)
        assert counters.get("hash_queries") == len(pts)
        assert got.dtype == np.int64
        assert got.tolist() == [brute_owner(list(ba), IntVect(p)) for p in pts.tolist()]
        assert ba.owners_at(np.zeros((0, dim), dtype=np.int64)).shape == (0,)
        assert ba.bounds().tolist() == [[list(b.lo), list(b.hi)] for b in ba]


def test_owners_at_matches_batch_query(rng):
    # the one-bin point path against the general batch query, which walks
    # the same hash: same owners (lowest containing index) and same counts
    for trial in range(60):
        dim = trial % 3 + 1
        n = int(rng.integers(4, 30))
        lo = [int(rng.integers(-8, 8)) for _ in range(dim)]
        domain = Box(IntVect(lo), IntVect([l + n - 1 for l in lo]))
        ba = random_cover(rng, domain, nsplits=int(rng.integers(0, 12)))
        if trial % 2:
            ba = ba.convert(IndexType.node(dim))  # shared faces
        pts = rng.integers(np.array(lo) - 5, np.array(lo) + n + 5, size=(300, dim))
        h = ba._get_hash()
        counters.reset("hash_bins_examined", "hash_queries")
        query, box = h.meeting(pts.T.copy(), pts.T.copy())
        want_counts = counters.get("hash_bins_examined"), counters.get("hash_queries")
        want = np.full(len(pts), -1, dtype=np.int64)
        hit, first = np.unique(query, return_index=True)  # sorted by query, then box
        want[hit] = box[first]
        counters.reset("hash_bins_examined", "hash_queries")
        got = ba.owners_at(pts)
        assert (counters.get("hash_bins_examined"), counters.get("hash_queries")) == want_counts
        assert got.tolist() == want.tolist()


def test_max_size_partitions_and_bounds(rng):
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        domain = Box(IntVect.zero(dim), IntVect([int(rng.integers(8, 40))] * dim))
        m = int(rng.integers(4, 12))
        ba = BoxArray([domain]).max_size(m)
        assert ba.num_cells() == domain.num_cells()
        for b in ba:
            for d in range(dim):
                assert b.extents()[d] <= m
        # still a disjoint cover
        assert ba.contains_box(domain)


def test_refine_coarsen_round_trip(rng):
    domain = Box(IntVect.zero(2), IntVect(31, 31))
    ba = random_cover(rng, domain, nsplits=7)
    assert ba.refine(2).coarsen(2).dump() == ba.dump()
    assert ba.refine(2).num_cells() == 4 * ba.num_cells()
    assert ba.coarsenable(1)


def test_convert_node_shares_faces():
    ba = BoxArray([Box(IntVect(0, 0), IntVect(3, 3)), Box(IntVect(4, 0), IntVect(7, 3))])
    nodal = ba.convert(IndexType.node(2))
    # nodal boxes overlap on the shared face; validation must allow that
    assert nodal[0].intersects(nodal[1])


def test_prune_keeps_order():
    domain = Box(IntVect.zero(2), IntVect(15, 15))
    ba = BoxArray([domain]).max_size(8)
    pruned = ba.prune(lambda b: b.lo[0] == 0)
    assert len(pruned) == 2
    assert all(b.lo[0] == 8 for b in pruned)


def test_minimal_box_and_complement(rng):
    domain = Box(IntVect.zero(2), IntVect(23, 23))
    ba = random_cover(rng, domain, nsplits=5)
    assert ba.minimal_box() == domain
    hole = BoxArray([ba[0]])
    rest = hole.complement_in(domain)
    assert sum(b.num_cells() for b in rest) == domain.num_cells() - ba[0].num_cells()
    for b in rest:
        assert not b.intersects(ba[0])


def test_uid_changes_with_layout():
    a = BoxArray([Box(IntVect(0, 0), IntVect(3, 3))])
    b = BoxArray([Box(IntVect(0, 0), IntVect(3, 3))])
    c = BoxArray([Box(IntVect(0, 0), IntVect(4, 3))])
    assert a.uid != c.uid
    assert a.uid != b.uid  # identity, not structural equality


# -- the bounds array as storage -------------------------------------------------


def _random_layout(rng, dim):
    n = int(rng.integers(6, 30))
    lo = [int(rng.integers(-9, 9)) for _ in range(dim)]
    domain = Box(IntVect(lo), IntVect([l + n - 1 for l in lo]))
    return random_cover(rng, domain, nsplits=int(rng.integers(0, 12)))


def test_array_form_matches_box_form(rng):
    for trial in range(45):
        dim = trial % 3 + 1
        ba = _random_layout(rng, dim)
        boxes = list(ba)
        arr = BoxArray(np.array([[list(b.lo), list(b.hi)] for b in boxes]))
        assert arr.ixtype == ba.ixtype == IndexType.cell(dim)
        assert arr == ba and hash(arr) == hash(ba)
        assert arr.bounds().tolist() == ba.bounds().tolist()
        assert not arr.bounds().flags.writeable
        assert len(arr) == len(boxes)
        assert [arr[i] for i in range(len(arr))] == boxes
        assert list(arr) == boxes and arr.boxes == tuple(boxes)
        assert arr[0] is arr[0]  # made once, then kept
        assert arr.num_cells() == sum(b.num_cells() for b in boxes)
        assert isinstance(arr.num_cells(), int)
        assert arr.minimal_box() == ba.minimal_box()
        assert arr.dump() == ba.dump()
        other = BoxArray(boxes[::-1])
        assert (other == arr) == (len(boxes) == 1)  # order is identity
    empty = BoxArray(np.zeros((0, 2, 2), dtype=np.int64))
    assert len(empty) == 0 and empty.num_cells() == 0
    assert empty.minimal_box().is_empty()
    assert empty == BoxArray([], IndexType.cell(2))


def test_array_form_validate_names_lowest_overlapping_pair():
    boxes = [
        Box(IntVect(0, 0), IntVect(7, 7)),
        Box(IntVect(20, 20), IntVect(23, 23)),
        Box(IntVect(6, 6), IntVect(9, 9)),
        Box(IntVect(-2, -2), IntVect(1, 1)),
    ]
    messages = []
    for form in (boxes, np.array([[list(b.lo), list(b.hi)] for b in boxes])):
        with pytest.raises(ValueError, match="boxes 0 and 2 overlap") as info:
            BoxArray(form)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_empty_box_rejected():
    with pytest.raises(ValueError, match="empty"):
        BoxArray(np.array([[[0, 0], [3, 3]], [[4, 0], [3, 3]]]))
    with pytest.raises(ValueError, match="empty"):
        BoxArray([Box(IntVect(0, 0), IntVect(3, 3)), Box.empty(2)])
    with pytest.raises(ValueError):
        BoxArray(np.zeros((2, 3, 2), dtype=np.int64))  # not (N, 2, D)


def test_array_form_convert_node_skips_disjointness():
    ba = BoxArray(np.array([[[0, 0], [3, 3]], [[4, 0], [7, 3]]]))
    nodal = ba.convert(IndexType.node(2))
    assert nodal.bounds().tolist() == [[[0, 0], [4, 4]], [[4, 0], [8, 4]]]
    assert nodal[0].intersects(nodal[1])
    assert nodal.convert(IndexType.cell(2)) == ba
    face = ba.convert(IndexType.face(2, 1))
    assert list(face) == [b.convert(IndexType.face(2, 1)) for b in ba]


def _max_size_box_loop(ba, m):
    """Chop box by box, dimension 0 outermost, with Box objects."""
    out = []
    for b in ba:
        pieces = [b]
        for d in range(b.dim):
            nxt = []
            for p in pieces:
                for s in range(p.lo[d], p.hi[d] + 1, m[d]):
                    lo, hi = list(p.lo), list(p.hi)
                    lo[d], hi[d] = s, min(s + m[d] - 1, p.hi[d])
                    nxt.append(Box(IntVect(lo), IntVect(hi), p.ixtype))
            pieces = nxt
        out.extend(pieces)
    return out


def test_layout_surgery_matches_box_loop(rng):
    for trial in range(60):
        dim = trial % 3 + 1
        ba = _random_layout(rng, dim)
        m = IntVect([int(rng.integers(1, 7)) for _ in range(dim)])
        got = ba.max_size(m)
        assert list(got) == _max_size_box_loop(ba, m)
        assert got.num_cells() == ba.num_cells()
        scalar = int(rng.integers(1, 7))
        assert list(ba.max_size(scalar)) == _max_size_box_loop(ba, IntVect([scalar] * dim))
        r = IntVect([int(rng.integers(1, 5)) for _ in range(dim)])
        assert list(ba.refine(r)) == [b.refine(r) for b in ba]
        assert list(ba.coarsen(r)) == [b.coarsen(r) for b in ba]
        assert ba.coarsenable(r) == all(b.coarsen(r).refine(r) == b for b in ba)
        assert ba.refine(r).coarsenable(r)
        assert ba.refine(r).coarsen(r) == ba
    with pytest.raises(ValueError):
        ba.max_size(0)
    with pytest.raises(ValueError):
        ba.refine(0)
    with pytest.raises(ValueError):
        ba.convert(IndexType.node(dim)).refine(2)
