"""Embedded geometry from implicit functions: CSG construction, cell
classification, subsampled cut-cell moments, small-cell redistribution,
node level sets, and covered-box pruning.

Sign convention everywhere: f > 0 inside the solid body, f < 0 in fluid,
f = 0 on the boundary.  The boundary normal points from fluid into body.

Moments come from s^D subsampling per cell (s^(D-1) per face) rather than
exact clipping; every consumer gets the sampling resolution alongside the
data so tolerances can follow 1/s.  Cell sizes are taken isotropic when
converting face sums to a boundary area (area is in units of dx^(D-1)).

Cells are certified before they are subsampled.  Every ImplicitFunction
carries an optional Lipschitz bound ``lip``: the primitives have 1, and
min, max, negation and rigid motions keep the largest operand bound.  A
cell whose center value exceeds ``lip`` times its half diagonal in
magnitude has one sign on its whole closure, faces included, so it is
regular or covered without any subsample; only the other cells, a few
percent of a typical level, are subsampled.  A function built from a plain
callable has ``lip=None``, and then every cell goes through subsampling on
the same code path.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .distribution import DistributionMapping
from .fabarray import FabArray, gather_global
from .index_space import IndexType, as_intvect

REGULAR = 0
CUT = 1
COVERED = 2


# ---------------------------------------------------------------------------
# implicit functions
# ---------------------------------------------------------------------------


class ImplicitFunction:
    """Vectorized signed field over physical points, positive inside body.

    lip is a Lipschitz bound, |f(p) - f(q)| <= lip * |p - q|, or None when
    unknown (a user function); compute_moments certifies cells with it.
    """

    __slots__ = ("_fn", "label", "lip")

    def __init__(self, fn, label="custom", lip=None):
        self._fn = fn
        self.label = label
        self.lip = lip

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        squeeze = pts.ndim == 1
        if squeeze:
            pts = pts[None, :]
        out = np.asarray(self._fn(pts), dtype=np.float64)
        return float(out[0]) if squeeze else out

    def __repr__(self):
        return f"ImplicitFunction({self.label})"


def sphere(radius, center):
    c = np.asarray(center, dtype=np.float64)
    r = float(radius)

    def fn(p):
        # column by column, in the order of .sum(axis=1) and with its bits:
        # numpy reduces a length-D axis several times slower
        d2 = (p[:, 0] - c[0]) ** 2
        for d in range(1, p.shape[1]):
            d2 += (p[:, d] - c[d]) ** 2
        return r - np.sqrt(d2)

    return ImplicitFunction(fn, f"sphere(r={r})", lip=1.0)


def box(lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (hi > lo).all():
        raise ValueError("box needs hi > lo in every dimension")

    def fn(p):
        # column by column, as in sphere
        out = np.minimum(p[:, 0] - lo[0], hi[0] - p[:, 0])
        for d in range(1, p.shape[1]):
            np.minimum(out, np.minimum(p[:, d] - lo[d], hi[d] - p[:, d]), out=out)
        return out

    return ImplicitFunction(fn, "box", lip=1.0)


def cylinder(radius, axis, center):
    r = float(radius)
    axis = int(axis)
    c = np.asarray(center, dtype=np.float64)

    def fn(p):
        d2 = np.zeros(p.shape[0])
        for d in range(p.shape[1]):
            if d != axis:
                d2 += (p[:, d] - c[d]) ** 2
        return r - np.sqrt(d2)

    return ImplicitFunction(fn, f"cylinder(r={r}, axis={axis})", lip=1.0)


def _max_lip(*fs):
    """Lipschitz bound of a min/max/negation/rigid motion of fs: the largest
    operand bound, or None if any operand has none (a plain callable too)."""
    lips = [getattr(f, "lip", None) for f in fs]
    return None if None in lips else max(lips)


def union(*fs):
    if not fs:
        raise ValueError("union needs at least one operand")

    def fn(p):
        out = fs[0](p)
        for g in fs[1:]:
            out = np.maximum(out, g(p))
        return out

    return ImplicitFunction(fn, "union", _max_lip(*fs))


def intersection(*fs):
    if not fs:
        raise ValueError("intersection needs at least one operand")

    def fn(p):
        out = fs[0](p)
        for g in fs[1:]:
            out = np.minimum(out, g(p))
        return out

    return ImplicitFunction(fn, "intersection", _max_lip(*fs))


def complement(f):
    return ImplicitFunction(lambda p: -f(p), "complement", _max_lip(f))


def difference(f, g):
    return intersection(f, complement(g))


def translate(f, offset):
    off = np.asarray(offset, dtype=np.float64)
    return ImplicitFunction(lambda p: f(p - off), "translate", _max_lip(f))


def rotate(f, axis, angle, center=None):
    """Rigid rotation of the body by angle (radians) about the axis through
    center; points are inverse-rotated before evaluation."""
    axis = int(axis)
    ca, sa = np.cos(float(angle)), np.sin(float(angle))

    def fn(p):
        dim = p.shape[1]
        c = np.zeros(dim) if center is None else np.asarray(center, np.float64)
        if dim == 2:
            u, v = 0, 1
        else:
            u, v = [d for d in range(3) if d != axis]
        q = p - c
        out = q.copy()
        # inverse rotation: R(-angle) applied in the (u, v) plane
        out[:, u] = ca * q[:, u] + sa * q[:, v]
        out[:, v] = -sa * q[:, u] + ca * q[:, v]
        return f(out + c)

    return ImplicitFunction(fn, "rotate", _max_lip(f))


# ---------------------------------------------------------------------------
# CSG expression grammar (config files and the CLI)
# ---------------------------------------------------------------------------

_CSG_FUNCS = {
    "sphere": sphere,
    "box": box,
    "cube": box,
    "cylinder": cylinder,
    "union": union,
    "intersection": intersection,
    "difference": difference,
    "complement": complement,
    "translate": translate,
    "rotate": rotate,
}


def parse_csg(text):
    """Build an ImplicitFunction from a small expression grammar.

    Allowed: calls to the primitive/combinator names, numeric literals,
    unary minus, and (...) tuples, e.g.
    ``difference(intersection(sphere(0.5,(0,0,0)), box((-0.4,)*3, (0.4,)*3)),
    union(cylinder(0.25,0,(0,0,0)), cylinder(0.25,1,(0,0,0))))``.
    """
    tree = ast.parse(text, mode="eval")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _CSG_FUNCS:
                raise ValueError(f"unknown shape or combinator: {ast.dump(node.func)}")
            if node.keywords:
                raise ValueError("keyword arguments are not part of the grammar")
            return _CSG_FUNCS[node.func.id](*[ev(a) for a in node.args])
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Tuple):
            return tuple(ev(e) for e in node.elts)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            # allows the (0.4,)*3 tuple-repeat shorthand
            return ev(node.left) * ev(node.right)
        raise ValueError(f"disallowed syntax in geometry expression: {ast.dump(node)}")

    out = ev(tree)
    if not isinstance(out, ImplicitFunction):
        raise ValueError("geometry expression must produce a shape")
    return out


def listing_csg():
    """The reference composite: a filleted cube with three circular bores."""
    return difference(
        intersection(sphere(0.5, (0.0, 0.0, 0.0)), box((-0.4,) * 3, (0.4,) * 3)),
        union(
            cylinder(0.25, 0, (0.0, 0.0, 0.0)),
            cylinder(0.25, 1, (0.0, 0.0, 0.0)),
            cylinder(0.25, 2, (0.0, 0.0, 0.0)),
        ),
    )


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _eval_at(f, cols):
    """f at the points whose coordinates are the arrays cols, which
    broadcast to one shape; the result takes that shape.  np.ix_ of
    per-axis vectors gives their tensor lattice."""
    cols = np.broadcast_arrays(*cols)
    if cols[0].size == 0:
        return np.zeros(cols[0].shape)
    pts = np.stack([c.reshape(-1) for c in cols], axis=1)
    return f(pts).reshape(cols[0].shape)


# Physical coordinates from integer indices.  A point's value depends only on
# its own indices, so gathering the points of some cells gives the same bits
# as a lattice over their whole box.


def _node_x(geom, d, i):
    return geom.prob_lo[d] + (i - geom.domain.lo[d]) * geom.cell_size[d]


def _center_x(geom, d, i):
    return geom.prob_lo[d] + (i - geom.domain.lo[d] + 0.5) * geom.cell_size[d]


def _sub_x(geom, d, s, lo, j):
    """Subsample j along d of the box with lo corner lo, counted from lo."""
    return geom.prob_lo[d] + ((lo - geom.domain.lo[d]) + (j + 0.5) / s) * geom.cell_size[d]


class _Cells:
    """Every cell of a list of boxes, box after box and in C order within a
    box.  box is the box number of each cell; local, lo and ext are (D, N)
    arrays of the cell's index within its box, the box's lo corner and the
    box's extents."""

    def __init__(self, bounds):
        lo = bounds[:, 0]
        ext = bounds[:, 1] - lo + 1
        ncell = ext.prod(axis=1)
        self.start = np.cumsum(ncell) - ncell
        self.shapes = [tuple(e) for e in ext.tolist()]
        self.box = np.repeat(np.arange(len(bounds)), ncell)
        self.lo = lo[self.box].T
        self.ext = ext[self.box].T
        rank = np.arange(self.box.size) - self.start[self.box]
        self.local = np.empty_like(self.ext)
        for d in reversed(range(bounds.shape[2])):
            rank, self.local[d] = np.divmod(rank, self.ext[d])

    def step(self, d):
        """Flat distance from each cell to its neighbor along d."""
        return self.ext[d + 1 :].prod(axis=0)

    def boxes(self, arr):
        """Per box, the slice of a (..., N) array reshaped to the box."""
        for g, (start, shape) in enumerate(zip(self.start, self.shapes)):
            block = arr[..., start : start + math.prod(shape)]
            yield g, block.reshape(arr.shape[:-1] + shape)


def _center_values(f, geom, cells):
    index = cells.lo + cells.local
    return _eval_at(f, [_center_x(geom, d, index[d]) for d in range(len(index))])


def _classify_cells(f, geom, cells, centers):
    """Flags and the uncertified mask of every cell, given its center value.

    A cell whose center value exceeds lip * half_diagonal in magnitude has
    one sign on its whole closure, so it is certified REGULAR or COVERED.
    Every other cell is flagged from its 2^D corner samples plus the center
    tie-guard, with each corner node evaluated once.
    """
    dim = cells.local.shape[0]
    lip = getattr(f, "lip", None)
    if lip is None:
        uncertified = np.ones(centers.shape, dtype=bool)
    else:
        half_diag = 0.5 * float(np.sqrt(np.square(geom.cell_size).sum()))
        uncertified = ~(np.abs(centers) > lip * half_diag * (1.0 + 1e-9))
    flags = np.full(centers.shape, CUT, dtype=np.int8)
    flags[~uncertified & (centers < 0.0)] = REGULAR
    flags[~uncertified & (centers > 0.0)] = COVERED
    u = np.flatnonzero(uncertified)
    if u.size:
        corners = np.indices((2,) * dim).reshape(dim, 1, 2**dim)
        nodes = (cells.lo[:, u, None] + cells.local[:, u, None] + corners).reshape(dim, -1)
        lo = nodes.min(axis=1)
        dims = tuple(nodes.max(axis=1) - lo + 1)
        keys, inverse = np.unique(
            np.ravel_multi_index(tuple(nodes - lo[:, None]), dims), return_inverse=True
        )
        uniq = np.unravel_index(keys, dims)
        vals = _eval_at(f, [_node_x(geom, d, uniq[d] + lo[d]) for d in range(dim)])
        corner = vals[inverse.reshape(-1)].reshape(u.size, 2**dim)
        flags[u[(corner < 0.0).all(axis=1) & (centers[u] < 0.0)]] = REGULAR
        flags[u[(corner > 0.0).all(axis=1) & (centers[u] > 0.0)]] = COVERED
    return flags, uncertified


def classify(f, geom, ba, dm=None):
    """Per-cell flags from the 2^D corner samples plus the center tie-guard."""
    if dm is None:
        dm = DistributionMapping.single_rank(len(ba))
    out = FabArray(ba, dm, ncomp=1, ngrow=0, dtype=np.int8)
    cells = _Cells(ba.bounds())
    flags = _classify_cells(f, geom, cells, _center_values(f, geom, cells))[0]
    for g, block in cells.boxes(flags):
        out.fab(g).valid(0)[...] = block
    return out


def _sample_sums(block, weights):
    """Per row of an (n, k_1, ..., k_m) boolean block: the number of true
    samples, and for each sample axis a the sum of weights[a][i_a] over
    them.  The weights are integers, and so is every partial sum of the
    float product, so the int64 results are exact."""
    n, shape = block.shape[0], block.shape[1:]
    k = np.indices(shape).reshape(len(shape), math.prod(shape))
    table = np.stack([np.ones(k.shape[1])] + [wa[ka] for wa, ka in zip(weights, k)], axis=1)
    out = (block.reshape(n, k.shape[1]) @ table).astype(np.int64)
    return out[:, 0], out[:, 1:].T


def _fluid_samples(f, geom, cells, sel, s, d=None, side=0):
    """Fluid mask (n, s, ..., s) of the s^D subsamples of cells sel, or with
    d given, of the s^(D-1) subsamples of their low (side 0) or high
    (side 1) face along d."""
    dim = cells.local.shape[0]
    trans = [e for e in range(dim) if e != d]
    k = np.indices((s,) * len(trans)).reshape(len(trans), s ** len(trans))
    cols = []
    for e in range(dim):
        lo, local = cells.lo[e][sel, None], cells.local[e][sel, None]
        if e == d:
            cols.append(_node_x(geom, e, lo + local + side))
        else:
            cols.append(_sub_x(geom, e, s, lo, local * s + k[trans.index(e)]))
    return (_eval_at(f, cols) < 0.0).reshape((len(sel),) + (s,) * len(trans))


_CHUNK_POINTS = 1 << 18  # subsamples per CSG evaluation; bounds the temporaries


def _chunks(sel, per_item):
    return np.array_split(sel, max(1, -(-len(sel) * per_item // _CHUNK_POINTS)))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


class EBLevelData:
    """Cut-cell geometry moments for one level.

    volfrac is the fluid fraction; centroids are cell-relative offsets in
    units of dx (each component in [-0.5, 0.5]); area_lo/area_hi hold the
    per-dimension face fluid fractions; eb_area is in units of dx^(D-1).
    """

    def __init__(self, geom, ba, dm, subsamples):
        self.geom = geom
        self.ba = ba
        self.dm = dm
        self.subsamples = int(subsamples)
        dim = geom.dim
        self.flags = FabArray(ba, dm, 1, 0, dtype=np.int8)
        self.volfrac = FabArray(ba, dm, 1, 0)
        self.centroid = FabArray(ba, dm, dim, 0)
        self.area_lo = FabArray(ba, dm, dim, 0)
        self.area_hi = FabArray(ba, dm, dim, 0)
        self.face_cent_lo = FabArray(ba, dm, dim * dim, 0)
        self.face_cent_hi = FabArray(ba, dm, dim * dim, 0)
        self.eb_area = FabArray(ba, dm, 1, 0)
        self.eb_normal = FabArray(ba, dm, dim, 0)
        self.eb_centroid = FabArray(ba, dm, dim, 0)
        self.diagnostics = []


def compute_moments(f, geom, ba, subsamples=4, dm=None):
    """Subsampled cut-cell moments; s**D interior and s**(D-1) face samples.

    The whole level is done at once.  Only cells that the Lipschitz bound
    leaves uncertified are subsampled, and of their faces only those that
    no certified cell of the same box touches; certified cells and faces
    take the all-fluid or all-body values.  Subsample k of s sits at the
    cell-relative offset (2k + 1 - s) / (2s), so every centroid is an
    integer weight sum divided once by 2s times the sample count: correctly
    rounded for every s, whatever the box layout.

    The boundary area and normal come from the face-balance vector
    v_d = aLo_d - aHi_d (divergence theorem), so A_eb = |v| and
    normal = v/|v| points from fluid into body.  A cut-flagged cell whose
    face balance cancels exactly is reflagged by majority vote and logged
    in diagnostics.
    """
    s = int(subsamples)
    if s < 2:
        raise ValueError("subsamples must be >= 2")
    if dm is None:
        dm = DistributionMapping.single_rank(len(ba))
    dim = geom.dim
    data = EBLevelData(geom, ba, dm, s)
    cells = _Cells(ba.bounds())
    n = cells.box.size
    centers = _center_values(f, geom, cells)
    flags, uncertified = _classify_cells(f, geom, cells, centers)
    wet = ~uncertified & (centers < 0.0)  # certified all-fluid cells
    w = 2 * np.arange(s) + 1 - s  # subsample offsets in units of dx / (2s)
    w_pair = 2 * np.arange(s - 1) + 2 - s  # midpoints of neighboring subsamples

    # interior subsamples of the uncertified cells: fluid count and first
    # moments, and for the boundary centroid the sign changes between
    # neighboring subsamples with their midpoints
    count = np.where(wet, s**dim, 0)
    num = np.zeros((dim, n), dtype=np.int64)
    ccount = np.zeros(n, dtype=np.int64)
    csum = np.zeros((dim, n), dtype=np.int64)
    for sel in _chunks(np.flatnonzero(uncertified), s**dim):
        fluid = _fluid_samples(f, geom, cells, sel, s)
        count[sel], num[:, sel] = _sample_sums(fluid, [w] * dim)
        for d in range(dim):
            change = np.diff(fluid, axis=d + 1)
            c, sums = _sample_sums(change, [w_pair if e == d else w for e in range(dim)])
            ccount[sel] += c
            csum[:, sel] += sums
    vol = count / float(s**dim)

    # face fractions and centroids per dimension.  Each cell samples its low
    # face when no certified cell of its box touches it, and its high face
    # when that lies on the box edge; other faces take a neighbor's value.
    full = s ** (dim - 1)
    alo = np.zeros((dim, n))
    ahi = np.zeros((dim, n))
    fcl = np.zeros((dim * dim, n))
    fch = np.zeros((dim * dim, n))
    for d in range(dim):
        first = cells.local[d] == 0
        last = cells.local[d] == cells.ext[d] - 1
        below = np.where(first, 0, np.arange(n) - cells.step(d))
        above = np.where(last, 0, np.arange(n) + cells.step(d))
        lo_count = np.where(wet | (wet[below] & ~first), full, 0)
        lo_num = np.zeros((dim - 1, n), dtype=np.int64)
        sampled = uncertified & (uncertified[below] | first)
        for sel in _chunks(np.flatnonzero(sampled), full):
            block = _fluid_samples(f, geom, cells, sel, s, d, 0)
            lo_count[sel], lo_num[:, sel] = _sample_sums(block, [w] * (dim - 1))
        hi_count = np.where(last, np.where(wet, full, 0), lo_count[above])
        hi_num = np.where(last, 0, lo_num[:, above])
        for sel in _chunks(np.flatnonzero(uncertified & last), full):
            block = _fluid_samples(f, geom, cells, sel, s, d, 1)
            hi_count[sel], hi_num[:, sel] = _sample_sums(block, [w] * (dim - 1))
        alo[d] = lo_count / float(full)
        ahi[d] = hi_count / float(full)
        trans = [e for e in range(dim) if e != d]
        for e in range(dim):
            comp = d * dim + e
            if e == d:
                fcl[comp] = -0.5
                fch[comp] = 0.5
            else:
                fcl[comp] = lo_num[trans.index(e)] / (2 * s * np.maximum(lo_count, 1))
                fch[comp] = hi_num[trans.index(e)] / (2 * s * np.maximum(hi_count, 1))

    # boundary area/normal from the face balance
    v = alo - ahi
    vmag = np.sqrt((v**2).sum(axis=0))
    cut = flags == CUT
    degenerate = cut & (vmag == 0.0)
    for c in np.flatnonzero(degenerate):
        vote = REGULAR if vol[c] >= 0.5 else COVERED
        flags[c] = vote
        cell = tuple(int(cells.lo[d, c] + cells.local[d, c]) for d in range(dim))
        data.diagnostics.append((int(cells.box[c]), cell, vote))
    cut &= ~degenerate
    area = np.where(cut, vmag, 0.0)
    normal = np.where(cut & (vmag > 0), v / np.maximum(vmag, 1e-300), 0.0)
    # boundary centroid: midpoints of sign-changing subsample pairs
    ebc = np.where(cut, csum / (2 * s * np.maximum(ccount, 1)), 0.0)

    out = (
        (data.flags, flags[None]),
        (data.volfrac, vol[None]),
        (data.centroid, num / (2 * s * np.maximum(count, 1))),
        (data.area_lo, alo),
        (data.area_hi, ahi),
        (data.face_cent_lo, fcl),
        (data.face_cent_hi, fch),
        (data.eb_area, area[None]),
        (data.eb_normal, normal),
        (data.eb_centroid, ebc),
    )
    for fa, arr in out:
        for g, block in cells.boxes(arr):
            fa.fab(g).data[...] = block  # no ghost cells: data is the valid region
    return data


# ---------------------------------------------------------------------------
# small-cell redistribution
# ---------------------------------------------------------------------------


def redistribute_small_cells(update, ebdata, threshold):
    """Shift the unstable share of small-cut-cell updates onto neighbors.

    A cut cell with volfrac below the threshold keeps volfrac*u of its
    update; the removed volume-weighted mass goes to face-sharing
    non-covered neighbors in proportion to their volume fractions, so the
    global volume-weighted sum is untouched.
    """
    geom = ebdata.geom
    dom = geom.domain
    dim = geom.dim
    kappa = gather_global(ebdata.volfrac, dom, comp=0)
    flags = gather_global(ebdata.flags, dom, comp=0)
    small = np.argwhere((flags == CUT) & (kappa < float(threshold)) & (kappa > 0.0))
    if small.size == 0:
        return
    ext = tuple(dom.extents())
    for comp in range(update.ncomp):
        u = gather_global(update, dom, comp=comp)
        for cell in small:
            cell = tuple(int(c) for c in cell)
            k = kappa[cell]
            nbrs = []
            for d in range(dim):
                for step in (-1, 1):
                    nb = list(cell)
                    nb[d] += step
                    if nb[d] < 0 or nb[d] >= ext[d]:
                        if not geom.periodic[d]:
                            continue
                        nb[d] %= ext[d]
                    nb = tuple(nb)
                    if flags[nb] != COVERED:
                        nbrs.append(nb)
            wsum = sum(kappa[n] for n in nbrs)
            if not nbrs or wsum <= 0.0:
                raise RuntimeError(
                    f"small cell {cell} has no eligible neighbor to absorb its update"
                )
            excess = (1.0 - k) * u[cell]
            removed = k * excess  # volume-weighted mass leaving the small cell
            u[cell] -= excess
            # mass share kappa_n * removed / wsum, so the value bump is even
            for n in nbrs:
                u[n] += removed / wsum
        # scatter back
        for g in range(len(update.ba)):
            b = update.ba[g]
            sl = tuple(
                slice(b.lo[d] - dom.lo[d], b.hi[d] - dom.lo[d] + 1) for d in range(dim)
            )
            update.fab(g).valid(comp)[...] = u[sl]


# ---------------------------------------------------------------------------
# level sets and pruning
# ---------------------------------------------------------------------------


class LevelSet:
    """Implicit-function values at nodes, optionally on a refined lattice.

    Stores the raw composite value, not a recomputed distance; min/max CSG
    of signed distances is distance-like near the surface but not exact at
    every point.
    """

    def __init__(self, fa, geom, refine_ratio):
        self.fa = fa
        self.geom = geom
        self.refine_ratio = refine_ratio


def build_level_set(f, geom, ba, refine_ratio=1, dm=None):
    refine_ratio = as_intvect(refine_ratio, geom.dim)
    if any(r < 1 for r in refine_ratio):
        raise ValueError("refine_ratio must be >= 1")
    geom_f = geom.refine(refine_ratio)
    node_t = IndexType.node(geom.dim)
    ba_nodes = ba.refine(refine_ratio).convert(node_t)
    if dm is None:
        dm = DistributionMapping.single_rank(len(ba_nodes))
    fa = FabArray(ba_nodes, dm, 1, 0)
    for g in range(len(ba_nodes)):
        nb = ba_nodes[g]
        coords = [_node_x(geom_f, d, np.arange(nb.lo[d], nb.hi[d] + 1)) for d in range(geom.dim)]
        fa.fab(g).valid(0)[...] = _eval_at(f, np.ix_(*coords))
    return LevelSet(fa, geom_f, refine_ratio)


def covered_box_predicate(f, geom):
    """Predicate for BoxArray.prune: true iff the whole box is inside the
    body (every cell classifies covered)."""

    def pred(b):
        axes = [_center_x(geom, d, np.arange(b.lo[d], b.hi[d] + 1)) for d in range(b.dim)]
        centers = _eval_at(f, np.ix_(*axes)).reshape(-1)
        if not (centers > 0.0).all():
            return False
        cells = _Cells(np.array([(b.lo, b.hi)]))
        return bool((_classify_cells(f, geom, cells, centers)[0] == COVERED).all())

    return pred
