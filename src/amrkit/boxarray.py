"""Non-overlapping collections of same-type boxes with hash-accelerated queries.

A BoxArray is the grid layout of one refinement level: an ordered list of
pairwise-disjoint boxes sharing one index type.  Order is part of identity;
box indices are stable handles that data containers and distribution maps
key on.  Intersection queries go through a spatial hash binned at the
maximum box extent, so a query the size of a box (or a box grown by a few
ghost cells) touches at most 3 bins per dimension no matter how many boxes
the collection holds.

A layout is stored as an ``(N, 2, D)`` int64 array of lo/hi corners; Box
objects are made on first use and kept.  Equality, cell counts, refine,
coarsen, convert and max_size work on the array, and the hash is built from
it in numpy.  ``intersections`` takes an ``(M, 2, D)`` array of query boxes
and answers them all at once: bin keys are computed in numpy, looked up in
the hash's sorted key array and the overlaps cut in one pass, so a batch
makes no per-query Python objects.  ``uncovered`` subtracts the members
from a batch of query boxes the same way, ``owners_at`` answers points in
the same hash, one bin per point, and ``validate`` is one uncounted
self-query.

Layouts are immutable and identified by a process-unique uid, so caches
key derived data (communication plans, coarsened layouts) on uids.
``on_free`` ties such entries to the lifetime of the layouts they key on.
"""

from __future__ import annotations

import itertools
import threading
import weakref

import numpy as np

from . import counters
from .index_space import Box, IndexType, IntVect, _new, as_intvect, box_diffs

_uid_lock = threading.Lock()
_uid_next = itertools.count(1)

_watch_lock = threading.Lock()
_watched = set()  # (uid, evict) pairs with a registered finalizer


def on_free(ba, evict):
    """Arrange for evict(ba.uid) to run once, when ba is garbage collected.

    A cache calls this for every layout an entry keys on, so the entry
    lives exactly as long as its layouts.  Repeated calls with the same
    (layout, evict) pair register one finalizer.  evict may run inside a
    garbage collection triggered anywhere, so it must tolerate re-entry:
    take a reentrant lock and iterate over a snapshot of the cache.
    """
    tag = (ba.uid, evict)
    with _watch_lock:
        if tag in _watched:
            return
        _watched.add(tag)
    # nothing to evict when the process exits
    weakref.finalize(ba, _fire, tag).atexit = False


def _fire(tag):
    _watched.discard(tag)
    tag[1](tag[0])


class BoxArray:
    """An ordered collection of pairwise-disjoint boxes of one index type."""

    __slots__ = ("ixtype", "uid", "_bounds", "_boxes", "_hash", "_hash_lock", "__weakref__")

    def __init__(self, boxes, ixtype=None, validate=True):
        """boxes is a sequence of Boxes or an (N, 2, D) int array of lo/hi
        corners, cell-centred unless ixtype says otherwise."""
        if isinstance(boxes, np.ndarray):
            arr, boxes = np.array(boxes, dtype=np.int64), None
            ixtype = IndexType.cell(arr.shape[-1]) if ixtype is None else ixtype
        else:
            boxes = tuple(boxes)
            if ixtype is None:
                if not boxes:
                    raise ValueError("empty BoxArray needs an explicit index type")
                ixtype = boxes[0].ixtype
            for b in boxes:
                if b.ixtype != ixtype:
                    raise ValueError(f"mixed index types: {b!r} vs {ixtype!r}")
            arr = np.array([(b.lo, b.hi) for b in boxes], dtype=np.int64).reshape(-1, 2, ixtype.dim)
        if arr.shape[1:] != (2, ixtype.dim):
            raise ValueError(f"bounds must be (N, 2, {ixtype.dim}), got {arr.shape}")
        if (arr[:, 1] < arr[:, 0]).any():
            raise ValueError("BoxArray may not contain empty boxes")
        arr.flags.writeable = False
        object.__setattr__(self, "ixtype", ixtype)
        with _uid_lock:
            object.__setattr__(self, "uid", next(_uid_next))
        object.__setattr__(self, "_bounds", arr)
        object.__setattr__(self, "_boxes", boxes)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_hash_lock", threading.Lock())
        if validate:
            self.validate()

    def __setattr__(self, *a):
        raise AttributeError("BoxArray is immutable")

    def validate(self):
        """Check pairwise disjointness; raises naming the overlapping pair
        with the lowest indices.  One uncounted self-query of the index."""
        if len(self) > 1:
            b = self._bounds
            q, j = self._get_hash().meeting(b[:, 0].T, b[:, 1].T, count=False)
            hit = np.flatnonzero(q < j)
            if hit.shape[0]:
                lo, hi = int(q[hit[0]]), int(j[hit[0]])
                raise ValueError(f"boxes {lo} and {hi} overlap: {self[lo]!r} vs {self[hi]!r}")
        return True

    @property
    def dim(self):
        return self.ixtype.dim

    @property
    def boxes(self):
        """The members as a tuple of Boxes, made on first use."""
        if self._boxes is None:
            t, rows = self.ixtype, self._bounds.tolist()
            boxes = tuple(Box(_new(IntVect, lo), _new(IntVect, hi), t) for lo, hi in rows)
            object.__setattr__(self, "_boxes", boxes)
        return self._boxes

    def __len__(self):
        return self._bounds.shape[0]

    def __getitem__(self, i):
        return self.boxes[i]

    def __iter__(self):
        return iter(self.boxes)

    def __eq__(self, other):
        if not isinstance(other, BoxArray):
            return NotImplemented
        return self.ixtype == other.ixtype and np.array_equal(self._bounds, other._bounds)

    def __hash__(self):
        return hash((self._bounds.shape, self._bounds.tobytes(), self.ixtype))

    def __repr__(self):
        return f"BoxArray({len(self)} boxes, type {self.ixtype!r})"

    def dump(self):
        return "\n".join(repr(b) for b in self.boxes)

    def num_cells(self):
        b = self._bounds
        return int((b[:, 1] - b[:, 0] + 1).prod(axis=1).sum())

    def minimal_box(self):
        if not len(self):
            return Box.empty(self.dim, self.ixtype)
        b = self._bounds
        lo, hi = b[:, 0].min(axis=0).tolist(), b[:, 1].max(axis=0).tolist()
        return Box(IntVect(lo), IntVect(hi), self.ixtype)

    # -- derived collections -------------------------------------------------

    def _ratio(self, ratio):
        if not self.ixtype.is_cell():
            raise ValueError("refine and coarsen are defined for cell-typed boxes; convert first")
        r = np.array(as_intvect(ratio, self.dim), dtype=np.int64)
        if (r < 1).any():
            raise ValueError("refinement ratio must be >= 1")
        return r

    def refine(self, ratio):
        r = self._ratio(ratio)
        lo, hi = self._bounds[:, 0] * r, (self._bounds[:, 1] + 1) * r - 1
        return BoxArray(np.stack([lo, hi], axis=1), self.ixtype, validate=False)

    def coarsen(self, ratio):
        # coarsening can merge formerly-disjoint boxes into overlap; callers
        # that need disjointness must check coarsenable() first.  Floor
        # division rounds toward -inf, as negative indices require.
        return BoxArray(self._bounds // self._ratio(ratio), self.ixtype, validate=False)

    def coarsenable(self, ratio):
        """True when coarsening by ratio keeps boxes exact (no partial cells)."""
        r = self._ratio(ratio)
        b = self._bounds
        return bool((b[:, 0] % r == 0).all() and ((b[:, 1] + 1) % r == 0).all())

    def convert(self, ixtype):
        # hi moves up a node where a dimension turns nodal, down where it
        # turns cell.  Nodal collections may legally share faces, edges and
        # corners, so the disjointness check applies to cell-typed ones only
        b = self._bounds
        hi = b[:, 1] + np.subtract(ixtype.nodal, self.ixtype.nodal, dtype=np.int64)
        return BoxArray(np.stack([b[:, 0], hi], axis=1), ixtype, validate=ixtype.is_cell())

    def max_size(self, m):
        """Chop every box so no extent exceeds m, cutting at multiples of m
        measured from each box's own lo corner (remainder chunk last).
        Pieces come box by box, row-major over the cuts with dimension 0
        outermost."""
        m = np.array(as_intvect(m, self.dim), dtype=np.int64)
        if (m < 1).any():
            raise ValueError("max_size must be >= 1 per dimension")
        b = self._bounds
        cuts = -(-(b[:, 1] - b[:, 0] + 1) // m)  # (N, D) pieces per dimension
        count = cuts.prod(axis=1)
        box = np.repeat(np.arange(len(self)), count)
        rank = np.arange(box.shape[0]) - np.repeat(np.cumsum(count) - count, count)
        lo = np.empty((box.shape[0], self.dim), dtype=np.int64)
        for d in reversed(range(self.dim)):
            rank, k = np.divmod(rank, cuts[box, d])
            lo[:, d] = b[box, 0, d] + k * m[d]
        hi = np.minimum(lo + m - 1, b[box, 1])
        return BoxArray(np.stack([lo, hi], axis=1), self.ixtype, validate=False)

    def prune(self, fully_covered):
        """Drop boxes for which the predicate is true; survivor order kept."""
        return BoxArray(
            [b for b in self.boxes if not fully_covered(b)], self.ixtype, validate=False
        )

    # -- queries ---------------------------------------------------------------

    def _get_hash(self):
        if self._hash is None:
            with self._hash_lock:
                if self._hash is None:
                    object.__setattr__(self, "_hash", BoxHash(self._bounds))
        return self._hash

    def bounds(self):
        """Read-only (N, 2, D) int64 array: row i holds box i's lo and hi."""
        return self._bounds

    def intersections(self, q):
        """Where members meet the query boxes, given as an (M, 2, D) int
        array of lo/hi corners; hash-backed.  Returns arrays (query, box,
        lo, hi), one row per overlapping pair, sorted by query then box,
        with the overlap's corners in lo and hi."""
        # (D, M) corners: per-dimension rows keep every step a 1-D numpy op
        q = np.asarray(q, dtype=np.int64).reshape(-1, 2, self.dim)
        lo, hi = np.ascontiguousarray(q.transpose(1, 2, 0))
        if not len(self) or not q.shape[0]:
            none = np.zeros(0, dtype=np.int64)
            return none, none, q[:0, 0], q[:0, 1]
        query, box = self._get_hash().meeting(lo, hi)
        b = self.bounds()
        olo = [np.maximum(lo[d][query], b[box, 0, d]) for d in range(self.dim)]
        ohi = [np.minimum(hi[d][query], b[box, 1, d]) for d in range(self.dim)]
        return query, box, np.stack(olo, axis=1), np.stack(ohi, axis=1)

    def uncovered(self, q):
        """The cells of each query box (an (M, 2, D) int array of lo/hi
        corners) that no member covers, as disjoint pieces: arrays (query,
        lo, hi), queries ascending; an empty query has none.  Each query is
        cut by box_diff by the members it meets, in ascending index, so its
        pieces come in that order.  One intersections call."""
        q = np.asarray(q, dtype=np.int64).reshape(-1, 2, self.dim)
        query, box, _, _ = self.intersections(q)
        row = np.flatnonzero((q[:, 1] >= q[:, 0]).all(axis=1))
        lo, hi = q[row, 0], q[row, 1]
        # the k-th member each query meets, in round k; an empty box where
        # a query meets fewer
        rank = np.arange(query.shape[0]) - np.searchsorted(query, query)
        for k in range(int(rank.max()) + 1 if rank.shape[0] else 0):
            cut = np.zeros((q.shape[0], 2, self.dim), dtype=np.int64)
            cut[:, 1, 0] = -1
            cut[query[rank == k]] = self._bounds[box[rank == k]]
            piece, lo, hi = box_diffs(np.stack([lo, hi], axis=1), cut[row])
            row = row[piece]
        return row, lo, hi

    def owners_at(self, cells):
        """Index of the box containing each row of an (n, D) int array, or -1.

        Each point examines exactly one hash bin.  Where boxes share faces
        (nodal layouts), the lowest containing index wins.
        """
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, self.dim)
        if not len(self) or not cells.shape[0]:
            return np.full(cells.shape[0], -1, dtype=np.int64)
        return self._get_hash().owners(np.ascontiguousarray(cells.T))

    def owner_at(self, p):
        """Box index containing point p, or None; examines exactly one bin."""
        g = int(self.owners_at(tuple(p))[0])
        return None if g < 0 else g

    def contains_box(self, q):
        """True iff every cell of q lies inside some member box."""
        if q.ixtype != self.ixtype:
            raise ValueError("index type mismatch")
        return not self.uncovered([(q.lo, q.hi)])[0].shape[0]

    def complement_in(self, region):
        """Disjoint boxes covering region minus this collection's cells."""
        if region.ixtype != self.ixtype:
            raise ValueError("index type mismatch")
        _, lo, hi = self.uncovered([(region.lo, region.hi)])
        return [
            Box(_new(IntVect, l), _new(IntVect, h), region.ixtype)
            for l, h in zip(lo.tolist(), hi.tolist())
        ]


def _bins_of(klo, khi, shape):
    """(item, key) for every lattice bin in the klo..khi range of each item
    (a column of the (D, M) corner arrays): items ascending, row-major keys
    ascending within an item.  Bins off the lattice are skipped."""
    lo = np.maximum(klo, 0)
    nb = np.maximum(np.minimum(khi, shape[:, None] - 1) - lo + 1, 0)
    count = nb.prod(axis=0)
    key = np.zeros(count.shape[0], dtype=np.int64)  # each item's lowest bin
    for d in range(lo.shape[0]):
        key = key * int(shape[d]) + lo[d]
    item = np.repeat(np.arange(count.shape[0]), count)
    rank = np.arange(item.shape[0]) - np.repeat(np.cumsum(count) - count, count)
    key = key[item]
    stride = 1
    for d in range(lo.shape[0] - 1, -1, -1):
        n = nb[d][item]
        key += rank % n * stride
        rank //= n
        stride *= int(shape[d])
    return item, key


class BoxHash:
    """Spatial hash over a BoxArray, binned at the maximum box extent.

    Built once in numpy from the layout's bounds() and cached on the
    BoxArray.  Each box is registered in every bin its image touches (at
    most 2 per dimension, since bins are at least as large as any box), so a
    query region of up to twice the bin size examines at most 3 bins per
    dimension.  Occupied bins are kept as sorted row-major keys over the bin
    lattice, with their members in CSR order, ascending box index per bin.
    """

    __slots__ = ("bounds", "origin", "size", "shape", "keys", "starts", "members")

    def __init__(self, bounds):
        if not bounds.shape[0]:
            raise ValueError("cannot hash an empty BoxArray")
        self.bounds = bounds
        self.origin = bounds[:, 0].min(axis=0)
        self.size = (bounds[:, 1] - bounds[:, 0]).max(axis=0) + 1
        klo = (bounds[:, 0] - self.origin) // self.size
        khi = (bounds[:, 1] - self.origin) // self.size
        self.shape = khi.max(axis=0) + 1
        box, key = _bins_of(klo.T, khi.T, self.shape)
        order = np.argsort(key, kind="stable")  # box order kept within a bin
        self.members = box[order]
        key = key[order]
        first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        self.keys = key[first]
        self.starts = np.append(first, key.shape[0])

    def meeting(self, lo, hi, count=True):
        """(query, box) for every box meeting a query box, given as (D, M)
        arrays of lo and hi corners; sorted by query then box.  When
        counted, each non-empty query counts once in hash_queries and by
        its bin span in hash_bins_examined."""
        klo = np.empty_like(lo)
        khi = np.empty_like(hi)
        for d, (o, s) in enumerate(zip(self.origin.tolist(), self.size.tolist())):
            klo[d] = (lo[d] - o) // s
            khi[d] = (hi[d] - o) // s
        empty = (hi < lo).any(axis=0)
        khi[:, empty] = klo[:, empty] - 1
        if count:
            span = np.maximum(khi - klo + 1, 0).prod(axis=0)
            counters.incr("hash_bins_examined", int(span.sum()))
            counters.incr("hash_queries", int(lo.shape[1] - empty.sum()))
        query, key = _bins_of(klo, khi, self.shape)
        slot = np.minimum(np.searchsorted(self.keys, key), self.keys.shape[0] - 1)
        hit = self.keys[slot] == key
        query = query[hit]
        first = self.starts[slot[hit]]
        n = self.starts[slot[hit] + 1] - first
        query = np.repeat(query, n)
        # member offset: the bin's first slot plus the rank within the bin
        offs = np.repeat(first - (np.cumsum(n) - n), n) + np.arange(query.shape[0])
        # one pair per (query, box), in (query, box) order
        nboxes = self.bounds.shape[0]
        code = np.sort(query * nboxes + self.members[offs])
        new = np.ones(code.shape[0], dtype=bool)
        new[1:] = code[1:] != code[:-1]
        query, box = np.divmod(code[new], nboxes)
        meets = np.ones(query.shape[0], dtype=bool)
        for d in range(lo.shape[0]):
            meets &= (lo[d][query] <= self.bounds[box, 1, d])
            meets &= (hi[d][query] >= self.bounds[box, 0, d])
        return query[meets], box[meets]

    def owners(self, cells):
        """Lowest index of a box containing each point of the (D, n) array
        cells, or -1.  A point looks up its one bin (key, searchsorted) and
        tests that bin's members; it counts once in hash_queries and once
        in hash_bins_examined, as a one-cell query of meeting does."""
        n = cells.shape[1]
        counters.incr("hash_bins_examined", n)
        counters.incr("hash_queries", n)
        k = (cells - self.origin[:, None]) // self.size[:, None]
        on = ((k >= 0) & (k < self.shape[:, None])).all(axis=0)
        key = np.ravel_multi_index(np.where(on, k, 0), self.shape)
        slot = np.minimum(np.searchsorted(self.keys, key), self.keys.shape[0] - 1)
        point = np.flatnonzero(on & (self.keys[slot] == key))
        first = self.starts[slot[point]]
        m = self.starts[slot[point] + 1] - first
        point = np.repeat(point, m)
        # each point's bin members, ascending box index
        box = self.members[np.repeat(first - (np.cumsum(m) - m), m) + np.arange(point.shape[0])]
        inside = np.ones(point.shape[0], dtype=bool)
        for d, (lo, hi) in enumerate(self.bounds.T):
            c = cells[d][point]
            inside &= (c >= lo[box]) & (c <= hi[box])
        point, box = point[inside], box[inside]
        lowest = np.ones(point.shape[0], dtype=bool)
        lowest[1:] = point[1:] != point[:-1]
        out = np.full(n, -1, dtype=np.int64)
        out[point[lowest]] = box[lowest]
        return out
