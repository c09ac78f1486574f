"""Integer index-space primitives: IntVect, IndexType, Box and box algebra.

IntVect is an immutable tuple of ints.  All values are immutable after
construction and safe to share between concurrent workers.
Dimensionality (1, 2 or 3) is carried by the values themselves and must be
consistent across every value used together in one program run.

Textual form used in logs and golden files: ``(lo..hi)[type]``, e.g.
``((0,0)..(3,3))[cc]`` where each type letter is ``c`` (cell) or ``n``
(node) per dimension.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np


def _as_coords(v, dim=None):
    if isinstance(v, int):
        if dim is None:
            raise ValueError("scalar needs an explicit dimension")
        c = (v,) * dim
    elif isinstance(v, IntVect):
        c = v
    else:
        c = tuple(int(x) for x in v)
    if dim is not None and len(c) != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {len(c)}")
    return c


def as_intvect(v, dim):
    """v as a dim-dimensional IntVect: an int is repeated, a sequence converted."""
    c = _as_coords(v, dim)
    return c if isinstance(c, IntVect) else _new(IntVect, c)


class IntVect(tuple):
    """A dimension-sized tuple of signed integers locating a point in index space.

    An immutable tuple: equality, hashing, ordering, indexing and iteration
    are the tuple's own.  Arithmetic (+ - * // and their reflected forms,
    unary -, min, max) is elementwise; the other operand may be an IntVect,
    a sequence of the same dimension or a scalar.
    """

    __slots__ = ()

    def __new__(cls, *coords):
        if len(coords) == 1 and not isinstance(coords[0], int):
            coords = coords[0]
        self = tuple.__new__(cls, map(int, coords))
        if not 1 <= len(self) <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(self)}")
        return self

    @property
    def coords(self):
        """The coordinates as a plain tuple."""
        return tuple(self)

    @property
    def dim(self):
        return len(self)

    def _map(self, op, other):
        return _new(IntVect, map(op, self, _as_coords(other, len(self))))

    def __add__(self, other):
        return self._map(operator.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._map(operator.sub, other)

    def __rsub__(self, other):
        return _new(IntVect, map(operator.sub, _as_coords(other, len(self)), self))

    def __mul__(self, other):
        return self._map(operator.mul, other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._map(operator.floordiv, other)

    def __neg__(self):
        return _new(IntVect, map(operator.neg, self))

    def min(self, other):
        return self._map(min, other)

    def max(self, other):
        return self._map(max, other)

    def all_ge(self, other):
        return all(map(operator.ge, self, _as_coords(other, len(self))))

    def all_le(self, other):
        return all(map(operator.le, self, _as_coords(other, len(self))))

    def prod(self):
        return math.prod(self)

    @staticmethod
    def unit(dim):
        return IntVect((1,) * dim)

    @staticmethod
    def zero(dim):
        return IntVect((0,) * dim)

    def __repr__(self):
        return f"IntVect{tuple.__repr__(self)}"


# builds an IntVect from values already known to be dim-many ints
_new = tuple.__new__


class IndexType:
    """Per-dimension centering: CELL or NODE.

    Face and edge centerings arise as mixed flags, e.g. the x-face type in
    2D is (NODE, CELL).
    """

    __slots__ = ("nodal",)

    CELL = False
    NODE = True

    def __init__(self, nodal):
        object.__setattr__(self, "nodal", tuple(bool(f) for f in nodal))

    def __setattr__(self, *a):
        raise AttributeError("IndexType is immutable")

    @staticmethod
    def cell(dim):
        return IndexType((False,) * dim)

    @staticmethod
    def node(dim):
        return IndexType((True,) * dim)

    @staticmethod
    def face(dim, direction):
        return IndexType(tuple(d == direction for d in range(dim)))

    @property
    def dim(self):
        return len(self.nodal)

    def is_cell(self):
        return not any(self.nodal)

    def __getitem__(self, d):
        return self.nodal[d]

    def __eq__(self, other):
        return isinstance(other, IndexType) and self.nodal == other.nodal

    def __hash__(self):
        return hash(self.nodal)

    def __repr__(self):
        return "".join("n" if f else "c" for f in self.nodal)


class Box:
    """A rectangular index-space region defined by its lower and upper corners.

    A box is non-empty iff ``lo[d] <= hi[d]`` for every dimension.  Empty
    boxes are representable: any inverted input is normalized to the
    canonical empty box (lo all zero, hi[0] = -1) so emptiness is a single
    unambiguous test.
    """

    __slots__ = ("lo", "hi", "ixtype")

    def __init__(self, lo, hi, ixtype=None):
        lo = lo if isinstance(lo, IntVect) else IntVect(lo)
        hi = hi if isinstance(hi, IntVect) else IntVect(hi)
        if lo.dim != hi.dim:
            raise ValueError("lo/hi dimension mismatch")
        if ixtype is None:
            ixtype = IndexType.cell(lo.dim)
        elif ixtype.dim != lo.dim:
            raise ValueError("index type dimension mismatch")
        if any(h < l for l, h in zip(lo, hi)):
            lo = IntVect.zero(lo.dim)
            hi = IntVect((-1,) + (0,) * (lo.dim - 1))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "ixtype", ixtype)

    def __setattr__(self, *a):
        raise AttributeError("Box is immutable")

    @staticmethod
    def empty(dim, ixtype=None):
        return Box(IntVect.zero(dim), IntVect((-1,) + (0,) * (dim - 1)), ixtype)

    @property
    def dim(self):
        return self.lo.dim

    def is_empty(self):
        return self.hi[0] < self.lo[0]

    def extents(self):
        if self.is_empty():
            return IntVect.zero(self.dim)
        return _new(IntVect, [h - l + 1 for l, h in zip(self.lo, self.hi)])

    def num_cells(self):
        return self.extents().prod()

    def intersect(self, other):
        if self.ixtype != other.ixtype:
            raise ValueError(f"index type mismatch: {self.ixtype} vs {other.ixtype}")
        if self.is_empty() or other.is_empty():
            return Box.empty(self.dim, self.ixtype)
        return Box(self.lo.max(other.lo), self.hi.min(other.hi), self.ixtype)

    def intersects(self, other):
        return not self.intersect(other).is_empty()

    def grow(self, n):
        if self.is_empty():
            return self
        n = _as_coords(n, self.dim)
        return Box(self.lo - n, self.hi + n, self.ixtype)

    def refine(self, ratio):
        if not self.ixtype.is_cell():
            raise ValueError("refine is defined for cell-typed boxes; convert first")
        if self.is_empty():
            return self
        r = _as_coords(ratio, self.dim)
        if any(x < 1 for x in r):
            raise ValueError("refinement ratio must be >= 1")
        lo = IntVect(l * x for l, x in zip(self.lo, r))
        hi = IntVect((h + 1) * x - 1 for h, x in zip(self.hi, r))
        return Box(lo, hi, self.ixtype)

    def coarsen(self, ratio):
        if not self.ixtype.is_cell():
            raise ValueError("coarsen is defined for cell-typed boxes; convert first")
        if self.is_empty():
            return self
        r = _as_coords(ratio, self.dim)
        if any(x < 1 for x in r):
            raise ValueError("refinement ratio must be >= 1")
        # floor division: round toward -inf, required for negative indices
        return Box(self.lo // r, self.hi // r, self.ixtype)

    def convert(self, ixtype):
        if ixtype.dim != self.dim:
            raise ValueError("index type dimension mismatch")
        if self.is_empty():
            return Box.empty(self.dim, ixtype)
        hi = list(self.hi)
        for d in range(self.dim):
            if ixtype[d] and not self.ixtype[d]:
                hi[d] += 1
            elif not ixtype[d] and self.ixtype[d]:
                hi[d] -= 1
        return Box(self.lo, IntVect(hi), ixtype)

    def contains(self, p):
        if self.is_empty():
            return False
        p = _as_coords(p, self.dim)
        return all(l <= x <= h for l, x, h in zip(self.lo, p, self.hi))

    def contains_box(self, other):
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        return other.lo.all_ge(self.lo) and other.hi.all_le(self.hi)

    def shift(self, v):
        if self.is_empty():
            return self
        v = _as_coords(v, self.dim)
        return Box(self.lo + v, self.hi + v, self.ixtype)

    def cells(self):
        """Iterate all index tuples in the box (small boxes / tests only)."""
        if self.is_empty():
            return iter(())
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return itertools.product(*ranges)

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return self.ixtype == other.ixtype and self.dim == other.dim
        return (self.lo, self.hi, self.ixtype) == (other.lo, other.hi, other.ixtype)

    def __hash__(self):
        if self.is_empty():
            return hash((self.dim, self.ixtype))
        return hash((self.lo, self.hi, self.ixtype))

    def __repr__(self):
        return f"({self.lo.coords}..{self.hi.coords})[{self.ixtype!r}]"


def box_diff(a, b):
    """Decompose ``a`` minus ``b`` into a list of disjoint boxes.

    Slab decomposition along each dimension in order; the result covers
    exactly the cells of ``a`` not in ``b``.
    """
    if a.ixtype != b.ixtype:
        raise ValueError("index type mismatch")
    inter = a.intersect(b)
    if inter.is_empty():
        return [] if a.is_empty() else [a]
    out = []
    lo = list(a.lo)
    hi = list(a.hi)
    for d in range(a.dim):
        if lo[d] < inter.lo[d]:
            piece_hi = list(hi)
            piece_hi[d] = inter.lo[d] - 1
            out.append(Box(IntVect(lo), IntVect(piece_hi), a.ixtype))
            lo[d] = inter.lo[d]
        if hi[d] > inter.hi[d]:
            piece_lo = list(lo)
            piece_lo[d] = inter.hi[d] + 1
            out.append(Box(IntVect(piece_lo), IntVect(hi), a.ixtype))
            hi[d] = inter.hi[d]
    return out


def box_diffs(a, b):
    """box_diff over rows: a and b are (n, 2, D) int arrays of lo/hi
    corners.  Returns (row, lo, hi): the pieces of each a[k] minus b[k],
    rows ascending and each row's pieces in box_diff's order."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n, dim = a.shape[0], a.shape[2]
    alo, ahi = a[:, 0], a[:, 1]
    ilo, ihi = np.maximum(alo, b[:, 0]), np.minimum(ahi, b[:, 1])
    meets = (ilo <= ihi).all(axis=1)
    # slot 0 is a itself, kept when b misses it; slots 1 + 2d + side are
    # the low and high slabs cut along dimension d
    lo = np.repeat(alo[:, None], 2 * dim + 1, axis=1)
    hi = np.repeat(ahi[:, None], 2 * dim + 1, axis=1)
    keep = np.zeros((n, 2 * dim + 1), dtype=bool)
    keep[:, 0] = ~meets & (alo <= ahi).all(axis=1)
    for d in range(dim):
        low, high = 1 + 2 * d, 2 + 2 * d
        hi[:, low, d] = ilo[:, d] - 1
        lo[:, high, d] = ihi[:, d] + 1
        keep[:, low] = meets & (alo[:, d] < ilo[:, d])
        keep[:, high] = meets & (ahi[:, d] > ihi[:, d])
        # the slabs of later dimensions lie inside the intersection along d
        lo[:, high + 1 :, d] = ilo[:, d, None]
        hi[:, high + 1 :, d] = ihi[:, d, None]
    row = np.nonzero(keep)[0]
    return row, lo[keep], hi[keep]
