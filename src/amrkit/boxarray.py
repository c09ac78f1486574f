"""Non-overlapping collections of same-type boxes with hash-accelerated queries.

A BoxArray is the grid layout of one refinement level: an ordered list of
pairwise-disjoint boxes sharing one index type.  Order is part of identity;
box indices are stable handles that data containers and distribution maps
key on.  Intersection queries go through a spatial hash binned at the
maximum box extent, so a query the size of a box (or a box grown by a few
ghost cells) touches at most 3 bins per dimension no matter how many boxes
the collection holds.

Next to the Box tuple a layout keeps an array form, an ``(N, 2, D)`` int64
array of lo/hi corners built on first use, and ``owners_at`` answers many
point queries at once from it: bin keys are computed in numpy, looked up
in the hash's sorted key array and tested for containment in one pass, so
locating particles makes no per-point Python objects.  ``owner_at`` is
its one-point form.

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
from .index_space import Box, IndexType, IntVect, box_diff

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

    __slots__ = ("boxes", "ixtype", "uid", "_hash", "_bounds", "_hash_lock", "__weakref__")

    def __init__(self, boxes, ixtype=None, validate=True):
        boxes = tuple(boxes)
        if ixtype is None:
            if not boxes:
                raise ValueError("empty BoxArray needs an explicit index type")
            ixtype = boxes[0].ixtype
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "ixtype", ixtype)
        with _uid_lock:
            object.__setattr__(self, "uid", next(_uid_next))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_bounds", None)
        object.__setattr__(self, "_hash_lock", threading.Lock())
        for b in boxes:
            if b.ixtype != ixtype:
                raise ValueError(f"mixed index types: {b!r} vs {ixtype!r}")
            if b.is_empty():
                raise ValueError("BoxArray may not contain empty boxes")
        if validate:
            self.validate()

    def __setattr__(self, *a):
        raise AttributeError("BoxArray is immutable")

    def validate(self):
        """Check pairwise disjointness; raises naming the first offending pair."""
        if len(self.boxes) > 1:
            hash_ = _BuiltHash(self.boxes)
            for i, b in enumerate(self.boxes):
                for j in hash_.candidates(b, count=False):
                    if j != i and self.boxes[j].intersects(b):
                        lo, hi = sorted((i, j))
                        raise ValueError(
                            f"boxes {lo} and {hi} overlap: "
                            f"{self.boxes[lo]!r} vs {self.boxes[hi]!r}"
                        )
        return True

    @property
    def dim(self):
        return self.ixtype.dim

    def __len__(self):
        return len(self.boxes)

    def __getitem__(self, i):
        return self.boxes[i]

    def __iter__(self):
        return iter(self.boxes)

    def __eq__(self, other):
        if not isinstance(other, BoxArray):
            return NotImplemented
        return self.boxes == other.boxes and self.ixtype == other.ixtype

    def __hash__(self):
        return hash((self.boxes, self.ixtype))

    def __repr__(self):
        return f"BoxArray({len(self.boxes)} boxes, type {self.ixtype!r})"

    def dump(self):
        return "\n".join(repr(b) for b in self.boxes)

    def num_cells(self):
        return sum(b.num_cells() for b in self.boxes)

    def minimal_box(self):
        if not self.boxes:
            return Box.empty(self.dim, self.ixtype)
        lo = self.boxes[0].lo
        hi = self.boxes[0].hi
        for b in self.boxes[1:]:
            lo = lo.min(b.lo)
            hi = hi.max(b.hi)
        return Box(lo, hi, self.ixtype)

    # -- derived collections -------------------------------------------------

    def refine(self, ratio):
        return BoxArray([b.refine(ratio) for b in self.boxes], self.ixtype, validate=False)

    def coarsen(self, ratio):
        # coarsening can merge formerly-disjoint boxes into overlap; callers
        # that need disjointness must check coarsenable() first
        return BoxArray([b.coarsen(ratio) for b in self.boxes], self.ixtype, validate=False)

    def coarsenable(self, ratio):
        """True when coarsening by ratio keeps boxes exact (no partial cells)."""
        return all(b.coarsen(ratio).refine(ratio) == b for b in self.boxes)

    def convert(self, ixtype):
        # nodal collections may legally share faces/edges/corners, so the
        # disjointness check applies to cell-typed collections only
        return BoxArray(
            [b.convert(ixtype) for b in self.boxes], ixtype, validate=ixtype.is_cell()
        )

    def max_size(self, m):
        """Chop every box so no extent exceeds m, cutting at multiples of m
        measured from each box's own lo corner (remainder chunk last)."""
        if isinstance(m, int):
            m = IntVect((m,) * self.dim)
        elif not isinstance(m, IntVect):
            m = IntVect(m)
        if any(x < 1 for x in m):
            raise ValueError("max_size must be >= 1 per dimension")
        out = []
        for b in self.boxes:
            pieces = [b]
            for d in range(self.dim):
                next_pieces = []
                for p in pieces:
                    lo, hi = p.lo[d], p.hi[d]
                    starts = list(range(lo, hi + 1, m[d]))
                    for s in starts:
                        plo = list(p.lo)
                        phi = list(p.hi)
                        plo[d] = s
                        phi[d] = min(s + m[d] - 1, hi)
                        next_pieces.append(Box(IntVect(plo), IntVect(phi), p.ixtype))
                pieces = next_pieces
            out.extend(pieces)
        return BoxArray(out, self.ixtype, validate=False)

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
                    object.__setattr__(self, "_hash", BoxHash(self))
        return self._hash

    def bounds(self):
        """Read-only (N, 2, D) int64 array: row i holds box i's lo and hi."""
        if self._bounds is None:
            with self._hash_lock:
                if self._bounds is None:
                    arr = np.array(
                        [(b.lo.coords, b.hi.coords) for b in self.boxes], dtype=np.int64
                    ).reshape(len(self.boxes), 2, self.dim)
                    arr.flags.writeable = False
                    object.__setattr__(self, "_bounds", arr)
        return self._bounds

    def intersections(self, q):
        """All (box_index, overlap) pairs where a member meets q; hash-backed."""
        if q.ixtype != self.ixtype:
            raise ValueError("index type mismatch")
        if q.is_empty() or not self.boxes:
            return []
        out = []
        for i in self._get_hash().candidates(q):
            overlap = self.boxes[i].intersect(q)
            if not overlap.is_empty():
                out.append((i, overlap))
        return out

    def owners_at(self, cells):
        """Index of the box containing each row of an (n, D) int array, or -1.

        Each point examines exactly one hash bin.  Where boxes share faces
        (nodal layouts), the lowest containing index wins.
        """
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, self.dim)
        out = np.full(cells.shape[0], -1, dtype=np.int64)
        if not self.boxes or cells.shape[0] == 0:
            return out
        rows, cands = self._get_hash().point_candidates(cells)
        b = self.bounds()
        inside = np.ones(rows.shape[0], dtype=bool)
        for d in range(self.dim):
            p = cells[rows, d]
            inside &= (p >= b[cands, 0, d]) & (p <= b[cands, 1, d])
        rows = rows[inside]
        cands = cands[inside]
        # rows ascend and candidates within a row ascend, so the first
        # containing candidate of each row is its lowest index
        first = np.ones(rows.shape[0], dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        out[rows[first]] = cands[first]
        return out

    def owner_at(self, p):
        """Box index containing point p, or None; examines exactly one bin."""
        g = int(self.owners_at(tuple(p))[0])
        return None if g < 0 else g

    def contains_box(self, q):
        """True iff every cell of q lies inside some member box."""
        if q.ixtype != self.ixtype:
            raise ValueError("index type mismatch")
        remaining = [q] if not q.is_empty() else []
        for i, overlap in self.intersections(q):
            nxt = []
            for piece in remaining:
                nxt.extend(box_diff(piece, overlap))
            remaining = nxt
            if not remaining:
                return True
        return not remaining

    def complement_in(self, region):
        """Disjoint boxes covering region minus this collection's cells."""
        remaining = [region] if not region.is_empty() else []
        for _, overlap in self.intersections(region):
            nxt = []
            for piece in remaining:
                nxt.extend(box_diff(piece, overlap))
            remaining = nxt
        return remaining


class _BuiltHash:
    """Shared binning core: boxes indexed by every bin their image touches."""

    __slots__ = ("bin_size", "origin", "bins", "dim")

    def __init__(self, boxes):
        self.dim = boxes[0].dim
        ext = boxes[0].extents()
        lo = boxes[0].lo
        for b in boxes[1:]:
            ext = ext.max(b.extents())
            lo = lo.min(b.lo)
        self.bin_size = ext.max(IntVect.unit(self.dim))
        self.origin = lo
        self.bins = {}
        for i, b in enumerate(boxes):
            for key in self._keys_for(b):
                self.bins.setdefault(key, []).append(i)

    def _key_at(self, p):
        return tuple((p[d] - self.origin[d]) // self.bin_size[d] for d in range(self.dim))

    def _keys_for(self, q):
        klo = self._key_at(q.lo)
        khi = self._key_at(q.hi)
        ranges = [range(klo[d], khi[d] + 1) for d in range(self.dim)]
        return itertools.product(*ranges)

    def candidates(self, q, count=True):
        seen = set()
        out = []
        nbins = 0
        for key in self._keys_for(q):
            nbins += 1
            for i in self.bins.get(key, ()):
                if i not in seen:
                    seen.add(i)
                    out.append(i)
        if count:
            counters.incr("hash_bins_examined", nbins)
            counters.incr("hash_queries")
        return out


class BoxHash(_BuiltHash):
    """Spatial hash over a BoxArray, binned at the maximum box extent.

    Built lazily on first query and cached on the BoxArray.  Each box is
    registered in every bin its image touches (at most 2 per dimension,
    since bins are at least as large as any box), so a query region of up
    to twice the bin size examines at most 3 bins per dimension.
    """

    __slots__ = ("_origin", "_size", "_shape", "_keys", "_starts", "_members")

    def __init__(self, ba):
        if not ba.boxes:
            raise ValueError("cannot hash an empty BoxArray")
        super().__init__(ba.boxes)
        # flat form for batch point queries: occupied bins as sorted
        # row-major keys over the bin lattice, members in CSR order
        self._origin = np.array(self.origin.coords, dtype=np.int64)
        self._size = np.array(self.bin_size.coords, dtype=np.int64)
        keys = sorted(self.bins)
        lattice = np.array(keys, dtype=np.int64)
        self._shape = lattice.max(axis=0) + 1
        self._keys = np.ravel_multi_index(lattice.T, self._shape)
        lengths = [len(self.bins[k]) for k in keys]
        self._starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        self._members = np.array(
            [i for k in keys for i in self.bins[k]], dtype=np.int64
        )

    def point_candidates(self, cells):
        """(row, box) pairs: every box registered in the bin of each cell
        row, rows ascending, boxes in index order within a row.  Counts one
        query and one examined bin per row."""
        n = cells.shape[0]
        counters.incr("hash_bins_examined", n)
        counters.incr("hash_queries", n)
        lin = np.zeros(n, dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        for d in range(self.dim):
            k = (cells[:, d] - self._origin[d]) // self._size[d]
            ok &= (k >= 0) & (k < self._shape[d])
            lin = lin * self._shape[d] + k
        rows = np.flatnonzero(ok)
        lin = lin[rows]
        slot = np.minimum(np.searchsorted(self._keys, lin), self._keys.shape[0] - 1)
        hit = self._keys[slot] == lin
        rows = rows[hit]
        slot = slot[hit]
        lo = self._starts[slot]
        count = self._starts[slot + 1] - lo
        pair_rows = np.repeat(rows, count)
        # member offset: the row's first slot plus the rank within the row
        first = np.cumsum(count) - count
        offs = np.repeat(lo - first, count) + np.arange(pair_rows.shape[0])
        return pair_rows, self._members[offs]
