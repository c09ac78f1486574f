"""Non-overlapping collections of same-type boxes with hash-accelerated queries.

A BoxArray is the grid layout of one refinement level: an ordered list of
pairwise-disjoint boxes sharing one index type.  Order is part of identity;
box indices are stable handles that data containers and distribution maps
key on.  Intersection queries go through a spatial hash binned at the
maximum box extent, so a query the size of a box (or a box grown by a few
ghost cells) touches at most 3 bins per dimension no matter how many boxes
the collection holds.

Layouts are immutable and identified by a process-unique uid, so caches
key derived data (communication plans, coarsened layouts) on uids.
``on_free`` ties such entries to the lifetime of the layouts they key on.
"""

from __future__ import annotations

import itertools
import threading
import weakref

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

    __slots__ = ("boxes", "ixtype", "uid", "_hash", "_hash_lock", "__weakref__")

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

    def owner_at(self, p):
        """Box index containing point p, or None; examines exactly one bin."""
        if not self.boxes:
            return None
        for i in self._get_hash().candidates_at(p):
            if self.boxes[i].contains(p):
                return i
        return None

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
        for key in self._keys_for(q):
            if count:
                counters.incr("hash_bins_examined")
            for i in self.bins.get(key, ()):
                if i not in seen:
                    seen.add(i)
                    out.append(i)
        if count:
            counters.incr("hash_queries")
        return out

    def candidates_at(self, p):
        counters.incr("hash_bins_examined")
        counters.incr("hash_queries")
        return self.bins.get(self._key_at(p), ())


class BoxHash(_BuiltHash):
    """Spatial hash over a BoxArray, binned at the maximum box extent.

    Built lazily on first query and cached on the BoxArray.  Each box is
    registered in every bin its image touches (at most 2 per dimension,
    since bins are at least as large as any box), so a query region of up
    to twice the bin size examines at most 3 bins per dimension.
    """

    __slots__ = ()

    def __init__(self, ba):
        if not ba.boxes:
            raise ValueError("cannot hash an empty BoxArray")
        super().__init__(ba.boxes)
