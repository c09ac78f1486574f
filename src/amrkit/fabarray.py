"""Distributed single-level data containers.

A Fab is one box's data: ncomp components stored component-major, each a
D-dimensional block covering the box grown by ngrow ghost cells.  A
FabArray pairs a BoxArray with a DistributionMapping and holds one Fab per
box; because every logical rank lives in this process, all Fabs are
reachable, but data never crosses rank boundaries except through the
Transport.

All of a FabArray's data lives in one flat arena: box i occupies
arena[offsets[i] : offsets[i] + ncomp * cells[i]], comp-major over its
grown box of cells[i] cells, boxes in index order, and fab(i).data is a
reshaped view of that slice.  component(c) views one component of the same
arena through offsets + c * cells, so a component is an ordinary FabArray.

Ghost exchange, inter-container copy, overlap summation, coarse/fine
patch filling and flux-register refluxing (coarse_fine) share one
machinery: a cached CommPlan, whose columns list the box-to-box copies
(source box, destination box, source region, shift).  Builders make the
columns from batch BoxArray.intersections queries, one per periodic shift.
Plans are cached per layout uid and evicted when a layout they key on is
garbage collected.  On first use with a given pair of arena layouts and
distribution maps a plan is compiled, once, into index arrays kept on the
plan: per rank pair, the arena elements it sends, in row order and
comp-major within a row; where they sit in one staged vector in plan
order; and the destination element of every staged value.  Execution is
then a gather, the Transport exchange (one message per rank pair, tagged
with its row ids), and one scatter in plan order:

- copy: assignment; a destination cell that several rows write keeps
  the last row's value (the others are dropped at compile time), so
  the indices are unique;
- add: the staged values, times a weight per source box when one is
  given, are added with np.add.at, which applies repeated indices in plan
  order (a plain indexed add when no index repeats).

The global order makes results bit-identical no matter how boxes are
spread over ranks.  Execution checks that every remote message the plan
expects arrives exactly once and that no other message does.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from . import counters
from .boxarray import on_free
from .index_space import box_diffs
from .transport import TransportError


class Fab:
    """Data for one box: shape (ncomp, *extents(grow(box, ngrow))), a view
    of the box's slice of its FabArray's arena."""

    __slots__ = ("box", "gbox", "ncomp", "ngrow", "data")

    def __init__(self, box, ngrow, data):
        self.box = box
        self.ngrow = int(ngrow)
        self.ncomp = data.shape[0]
        self.gbox = box.grow(self.ngrow) if self.ngrow else box
        self.data = data

    def slice(self, region, comp=None):
        """Numpy view of region (a Box inside the grown box); all comps or one."""
        if not self.gbox.contains_box(region):
            raise ValueError(f"{region!r} not within {self.gbox!r}")
        idx = tuple(
            slice(region.lo[d] - self.gbox.lo[d], region.hi[d] - self.gbox.lo[d] + 1)
            for d in range(self.box.dim)
        )
        return self.data[(slice(None) if comp is None else comp,) + idx]

    def valid(self, comp=None):
        """Numpy view of the valid region (the box without its ghosts)."""
        n = self.ngrow
        idx = tuple(slice(n, e - n) for e in self.data.shape[1:])
        return self.data[(slice(None) if comp is None else comp,) + idx]

    def setval(self, value, comp=None, ghosts=True):
        if ghosts:
            if comp is None:
                self.data[...] = value
            else:
                self.data[comp, ...] = value
        else:
            self.valid(comp)[...] = value


def _ranges(starts, lengths):
    """The ranges [starts[k], starts[k] + lengths[k]) one after another,
    as one int64 array."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size)
    return out


class FabArray:
    """One Fab per box of a BoxArray, assigned to ranks by a DistributionMapping.

    arena is the flat storage of every Fab; offsets[i] and cells[i] are
    box i's first arena element and its grown-box cell count, glo and gext
    the (N, D) lo corners and extents of the grown boxes.  layout
    identifies the arena placement (ncomp, ngrow, components stored per
    box, first component) for a given BoxArray.
    """

    def __init__(self, ba, dm, ncomp=1, ngrow=0, dtype=np.float64):
        if len(ba) != len(dm):
            raise ValueError("BoxArray and DistributionMapping lengths differ")
        self.ba = ba
        self.dm = dm
        self.ncomp = int(ncomp)
        self.ngrow = int(ngrow)
        self.dtype = np.dtype(dtype)
        bounds = ba.bounds()
        self.glo = bounds[:, 0] - self.ngrow
        self.gext = bounds[:, 1] - bounds[:, 0] + (1 + 2 * self.ngrow)
        self.cells = self.gext.prod(axis=1)
        size = self.ncomp * self.cells
        self.offsets = np.cumsum(size) - size
        self.arena = np.zeros(int(size.sum()), self.dtype)
        self.layout = (self.ncomp, self.ngrow, self.ncomp, 0)
        self._reset_views()

    def _reset_views(self):
        self._fabs = [None] * len(self.ba)
        self._index = {}
        self._components = {}

    @property
    def dim(self):
        return self.ba.dim

    def fab(self, i):
        """Box i's Fab, a view of its arena slice (made on first use)."""
        f = self._fabs[i]
        if f is None:
            off, ext = int(self.offsets[i]), self.gext[i].tolist()
            n = self.ncomp * math.prod(ext)
            data = self.arena[off : off + n].reshape(self.ncomp, *ext)
            f = self._fabs[i] = Fab(self.ba[i], self.ngrow, data)
        return f

    def component(self, comp):
        """FabArray of component comp alone, viewing this arena."""
        if not 0 <= comp < self.ncomp:
            raise ValueError(f"component {comp} outside [0, {self.ncomp})")
        if self.ncomp == 1:
            return self
        out = self._components.get(comp)
        if out is None:
            out = FabArray.__new__(FabArray)
            out.__dict__.update(self.__dict__)
            out.ncomp = 1
            out.offsets = self.offsets + comp * self.cells
            out.layout = (1, self.ngrow, self.layout[2], self.layout[3] + comp)
            out._reset_views()
            self._components[comp] = out
        return out

    def setval(self, value, comp=None, ghosts=True):
        if comp is None and ghosts and self.layout[2] == self.ncomp:
            self.arena[...] = value
        else:
            for i in range(len(self.ba)):
                self.fab(i).setval(value, comp, ghosts)
        return self

    def _region_index(self, box, lo, ext):
        """Arena index of every element of the regions with lo corners lo
        and extents ext (n, D) inside the grown boxes box: region after
        region, comp-major, C order, the order of Fab.slice(region).ravel().
        Raises if a region leaves its grown box."""
        glo, gext = self.glo[box], self.gext[box]
        rel = lo - glo
        if (rel < 0).any() or (rel + ext > gext).any():
            raise ValueError("copy region outside its grown box")
        stride = np.ones_like(gext)
        for d in reversed(range(self.dim - 1)):
            stride[:, d] = stride[:, d + 1] * gext[:, d + 1]
        base = self.offsets[box] + (rel * stride).sum(axis=1)
        # every row along the last axis is a run of consecutive elements
        nrow = ext[:, :-1].prod(axis=1)
        region = np.repeat(np.arange(len(box)), self.ncomp * nrow)
        rest = _ranges(np.zeros_like(nrow), self.ncomp * nrow)
        comp, rest = np.divmod(rest, nrow[region])
        start = base[region] + comp * self.cells[box][region]
        for d in reversed(range(self.dim - 1)):
            rest, pos = np.divmod(rest, ext[region, d])
            start += pos * stride[region, d]
        return _ranges(start, ext[region, -1])

    def _layout_index(self, ghosts):
        """Arena index of every valid element, box after box, in the order
        of an ngrow=0 arena over the same boxes; or, with ghosts, of every
        ghost element.  Cached."""
        out = self._index.get(ghosts)
        if out is None:
            if ghosts:
                grown = np.stack([self.glo, self.glo + self.gext - 1], axis=1)
                box, lo, hi = box_diffs(grown, self.ba.bounds())
            else:
                bounds = self.ba.bounds()
                box, lo, hi = np.arange(len(self.ba)), bounds[:, 0], bounds[:, 1]
            out = self._index[ghosts] = self._region_index(box, lo, hi - lo + 1)
        return out

    def valid_values(self):
        """Every valid element, in the order of an ngrow=0 arena over the
        same boxes: a view of the arena when that is its layout."""
        if self.ngrow == 0 and self.layout[2] == self.ncomp:
            return self.arena
        return self.arena[self._layout_index(False)]

# ---------------------------------------------------------------------------
# communication plans
# ---------------------------------------------------------------------------


class CommPlan:
    """Box-to-box copies as columns, one row per copy; the row order is
    the apply order.

    Row k copies the cells lo[k]..hi[k] of source box src[k] onto
    destination box dst[k], each cell c landing on c + shift[k]; src and
    dst are (n,) and lo, hi and shift (n, D) int arrays.  Only coordinates
    must agree: the flux register copies face-typed coarse fluxes into
    registers indexed by the adjacent (cell-typed) coarse cell.  Rows are
    sorted by destination box, destination lo corner, source box and
    shift; with ordered=False they are kept as given, for plans whose rows
    add to the same cell more than once in a sequence that fixes the
    result's bytes.  compiled holds the plan's index arrays per pair of
    arena layouts and distribution maps (see _compile), so they go when
    the plan does.
    """

    __slots__ = ("src", "dst", "lo", "hi", "shift", "compiled")

    def __init__(self, src, dst, lo, hi, shift, ordered=True):
        if ordered:
            dlo = lo + shift
            # np.lexsort sorts by its last key first
            keys = [*shift.T[::-1], src, *dlo.T[::-1], dst]
            order = np.lexsort(keys)
            src, dst, lo, hi, shift = (c[order] for c in (src, dst, lo, hi, shift))
        self.src, self.dst, self.lo, self.hi, self.shift = src, dst, lo, hi, shift
        self.compiled = {}

    def __len__(self):
        return self.src.shape[0]


def _plan_of(parts):
    """The sorted CommPlan of (src, dst, lo, hi, shift) column chunks."""
    return CommPlan(*(np.concatenate(c) for c in zip(*parts)))


_plan_cache = {}
# reentrant: eviction runs from finalizers, which a garbage collection may
# start while this thread already holds the lock
_plan_lock = threading.RLock()


def _evict_plans(uid):
    with _plan_lock:
        for key in list(_plan_cache):
            if uid in key[1]:
                _plan_cache.pop(key, None)


def _plan_key(kind, layouts, *params):
    """Cache key (kind, layout uids, *params); the entry it keys is evicted
    once any of the layouts is garbage collected."""
    for ba in layouts:
        on_free(ba, _evict_plans)
    return (kind, tuple(ba.uid for ba in layouts)) + params


def plan_cache_clear():
    with _plan_lock:
        _plan_cache.clear()


def _cached_plan(key, builder):
    with _plan_lock:
        plan = _plan_cache.get(key)
    if plan is not None:
        return plan
    plan = builder()
    with _plan_lock:
        prior = _plan_cache.get(key)
        if prior is not None:
            return prior
        _plan_cache[key] = plan
        counters.incr("plans_built")
    return plan


def _periodic_shifts(domain, periodic, dim):
    """All wrap displacement vectors to consider, as rows of a (k, D) int
    array, the zero shift first."""
    ext = domain.extents()
    choices = [(-ext[d], 0, ext[d]) if periodic[d] else (0,) for d in range(dim)]
    shifts = sorted(itertools.product(*choices), key=lambda v: (any(v), v))
    return np.array(shifts, dtype=np.int64).reshape(-1, dim)


def _normalize_periodic(periodic, dim):
    if periodic is None:
        return (False,) * dim
    if isinstance(periodic, bool):
        return (periodic,) * dim
    return tuple(bool(p) for p in periodic)


def build_plan_fill_boundary(ba, ngrow, domain, periodic=None):
    """Rows filling each box's ghost region from other boxes' valid cells
    (periodic images included); cached per (layout, ngrow, wrap, domain)."""
    periodic = _normalize_periodic(periodic, ba.dim)
    key = _plan_key("fill", (ba,), ngrow, periodic, domain)
    return _cached_plan(key, lambda: _build_fill(ba, ngrow, domain, periodic))


def _build_fill(ba, ngrow, domain, periodic):
    for d in range(ba.dim):
        if periodic[d] and ngrow > domain.extents()[d]:
            raise ValueError("ghost width exceeds domain extent in a periodic dimension")
    b = ba.bounds()
    # each box's ghost region as box_diff pieces of its grown box
    box, lo, hi = box_diffs(np.stack([b[:, 0] - ngrow, b[:, 1] + ngrow], axis=1), b)
    pieces = np.stack([lo, hi], axis=1)
    parts = []
    for s in _periodic_shifts(domain, periodic, ba.dim):
        q, src, lo, hi = ba.intersections(pieces - s)
        dst = box[q]
        if not s.any():
            keep = src != dst
            src, dst, lo, hi = src[keep], dst[keep], lo[keep], hi[keep]
        parts.append((src, dst, lo, hi, np.broadcast_to(s, lo.shape)))
    return _plan_of(parts)


def build_plan_copy(dst_ba, src_ba, domain=None, periodic=None, ngrow=0):
    """Rows writing dst cells (valid, grown by ngrow ghost cells) from
    overlapping src valid cells."""
    if dst_ba.ixtype != src_ba.ixtype:
        raise ValueError("index type mismatch")
    periodic = _normalize_periodic(periodic, dst_ba.dim)
    if any(periodic) and domain is None:
        raise ValueError("periodic copy needs the domain box")
    key = _plan_key("copy", (dst_ba, src_ba), periodic, domain, ngrow)
    return _cached_plan(
        key, lambda: _build_copy(dst_ba, src_ba, domain, periodic, ngrow)
    )


def _build_copy(dst_ba, src_ba, domain, periodic, ngrow):
    if domain is None:
        shifts = np.zeros((1, dst_ba.dim), dtype=np.int64)
    else:
        shifts = _periodic_shifts(domain, periodic, dst_ba.dim)
    b = dst_ba.bounds()
    targets = np.stack([b[:, 0] - ngrow, b[:, 1] + ngrow], axis=1)
    parts = []
    for s in shifts:
        dst, src, lo, hi = src_ba.intersections(targets - s)
        parts.append((src, dst, lo, hi, np.broadcast_to(s, lo.shape)))
    return _plan_of(parts)


def build_plan_sum_boundary(ba, ngrow, domain, periodic=None):
    """Transpose of the fill plan: ghost regions flow back onto valid cells."""
    periodic = _normalize_periodic(periodic, ba.dim)
    key = _plan_key("sum", (ba,), ngrow, periodic, domain)

    def build():
        f = _build_fill(ba, ngrow, domain, periodic)
        return CommPlan(f.dst, f.src, f.lo + f.shift, f.hi + f.shift, -f.shift)

    return _cached_plan(key, build)


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------


class _Compiled:
    """A plan as index arrays for one pair of arena layouts and
    distribution maps.

    groups: per (src rank, dst rank) pair in sorted order, (src rank, dst
    rank, tag, gather, place): the tag is the tuple of the pair's row ids,
    gather the source arena elements of those rows in row order
    (comp-major within a row), place their positions in the staged
    vector, which holds every row's elements in plan order.  dst is the
    destination arena element of each staged value (take selects the
    staged values it receives when some were dropped), and unique says
    whether dst repeats no element.  src_index and sizes are each row's
    source box and element count.
    """

    __slots__ = ("groups", "dst", "take", "unique", "src_index", "sizes")


def _compile(plan, src_fa, dst_fa, copy):
    """Index arrays of plan between src_fa and dst_fa; with copy (the last
    write wins), destination elements that a later row overwrites are
    dropped, which leaves dst unique."""
    if src_fa.ncomp != dst_fa.ncomp:
        raise ValueError(f"component count mismatch: {src_fa.ncomp} vs {dst_fa.ncomp}")
    nranks = src_fa.dm.nranks
    si, di, slo = plan.src, plan.dst, plan.lo
    dlo = slo + plan.shift
    ext = plan.hi - slo + 1
    src = src_fa._region_index(si, slo, ext)
    dst = dst_fa._region_index(di, dlo, ext)
    size = src_fa.ncomp * ext.prod(axis=1)
    start = np.cumsum(size) - size
    pair = np.asarray(src_fa.dm.owner, dtype=np.int64)[si] * nranks + np.asarray(
        dst_fa.dm.owner, dtype=np.int64
    )[di]
    order = np.argsort(pair, kind="stable")
    groups = []
    for rids in np.split(order, np.flatnonzero(np.diff(pair[order])) + 1):
        if rids.size:
            place = _ranges(start[rids], size[rids])
            sr, dr = divmod(int(pair[rids[0]]), nranks)
            groups.append((sr, dr, tuple(rids.tolist()), src[place], place))
    out = _Compiled()
    out.groups = groups
    out.src_index = si
    out.sizes = size
    # stable sort by destination: each run lists one element's writes in plan order
    by_dst = np.argsort(dst, kind="stable")
    last = np.ones(dst.size, dtype=bool)
    last[:-1] = dst[by_dst[1:]] != dst[by_dst[:-1]]
    out.unique = bool(last.all())
    out.take = None
    if copy and not out.unique:
        out.take = np.sort(by_dst[last])
        dst = dst[out.take]
        out.unique = True
    out.dst = dst
    return out


def _execute_plan(plan, src_fa, dst_fa, transport, combine, weights=None):
    """Gather every source element the plan reads, move the remote ones
    over the transport (one buffer per rank pair, tagged with its row
    ids), and scatter into dst_fa in plan order.  combine is "copy"
    (assignment, the last write wins) or "add" (np.add.at, in plan order,
    of the values times weights: a scalar, or one weight per source box).

    Raises TransportError when a remote message the plan expects does not
    arrive, arrives twice, or a message it does not expect is drained."""
    nranks = transport.nranks
    if src_fa.dm.nranks != nranks or dst_fa.dm.nranks != nranks:
        raise ValueError("transport rank count differs from the distribution maps")
    key = (src_fa.layout, dst_fa.layout, src_fa.dm, dst_fa.dm, combine)
    c = plan.compiled.get(key)
    if c is None:
        c = plan.compiled[key] = _compile(plan, src_fa, dst_fa, combine == "copy")
    staged = np.empty(int(c.sizes.sum()), dtype=src_fa.dtype)
    expected = {}
    for sr, dr, tag, gather, place in c.groups:
        if sr == dr:
            staged[place] = src_fa.arena[gather]
        else:
            expected[(sr, dr)] = (tag, place)
            transport.send(sr, dr, tag, src_fa.arena[gather])
    for dr in range(nranks):
        for sr, tag, buf in transport.drain(dr):
            want = expected.pop((sr, dr), None)
            if want is None or want[0] != tag:
                raise TransportError(sr, dr, "unexpected or duplicated message")
            if buf.size != want[1].size:
                raise ValueError("buffer size mismatch while unpacking")
            staged[want[1]] = buf
    if expected:
        sr, dr = min(expected)
        raise TransportError(sr, dr, f"{len(expected)} expected message(s) never arrived")
    arena = dst_fa.arena
    if combine == "copy":
        arena[c.dst] = staged if c.take is None else staged[c.take]
        return
    if weights is not None:
        if not np.isscalar(weights):
            weights = np.repeat(np.asarray(weights)[c.src_index], c.sizes)
        staged *= weights
    if c.unique:
        arena[c.dst] += staged
    else:
        np.add.at(arena, c.dst, staged)


def fill_boundary(fa, transport, domain, periodic=None):
    """Fill every in-domain (or periodic-image) ghost cell from the valid
    cell it shadows.  Out-of-domain non-periodic ghosts are left untouched."""
    if fa.ngrow == 0:
        return
    plan = build_plan_fill_boundary(fa.ba, fa.ngrow, domain, periodic)
    _execute_plan(plan, fa, fa, transport, "copy")


def parallel_copy(dst_fa, src_fa, transport, domain=None, periodic=None, ngrow=0):
    """Copy src valid data onto dst valid cells, and onto the first ngrow
    ghost cells around them, wherever the layouts overlap."""
    if dst_fa.ncomp != src_fa.ncomp:
        raise ValueError(
            f"component count mismatch: dst {dst_fa.ncomp} vs src {src_fa.ncomp}"
        )
    if not 0 <= ngrow <= dst_fa.ngrow:
        raise ValueError(f"ngrow {ngrow} outside [0, {dst_fa.ngrow}] (dst ghost width)")
    plan = build_plan_copy(dst_fa.ba, src_fa.ba, domain, periodic, ngrow)
    _execute_plan(plan, src_fa, dst_fa, transport, "copy")


def sum_boundary(fa, transport, domain, periodic=None):
    """Add every ghost copy of a cell back onto that cell's valid value,
    then zero the ghost cells.

    The apply order is the plan order, fixed at build time, so repeated
    runs and different rank counts sum in exactly the same sequence."""
    if fa.ngrow == 0:
        return
    plan = build_plan_sum_boundary(fa.ba, fa.ngrow, domain, periodic)
    _execute_plan(plan, fa, fa, transport, "add")
    fa.arena[fa._layout_index(True)] = 0


def reduce(fa, kind, comp, transport):
    """Reduce one component over valid cells only, combining rank partials.

    Partials travel to rank 0 (one message per remote rank) and combine in
    rank order; the result is returned to the caller directly, standing in
    for a broadcast."""
    ops = {
        "sum": (np.sum, np.add),
        "min": (np.min, np.minimum),
        "max": (np.max, np.maximum),
    }
    if kind not in ops:
        raise ValueError(f"unknown reduction {kind!r}")
    if not 0 <= comp < fa.ncomp:
        raise ValueError("component out of range")
    local_op, pair_op = ops[kind]
    identity = {"sum": 0.0, "min": np.inf, "max": -np.inf}[kind]
    partials = {}
    for rank in range(transport.nranks):
        vals = [
            local_op(fa.fab(i).valid(comp)) for i in fa.dm.owned_indices(rank)
        ]
        part = identity
        for v in vals:
            part = pair_op(part, v)
        partials[rank] = part
    for rank in range(1, transport.nranks):
        transport.send(rank, 0, "reduce", np.array([partials[rank]]))
    total = partials[0]
    for _, _, buf in transport.drain(0):
        total = pair_op(total, buf[0])
    return float(total)


def gather_global(fa, region, comp=0, default=0.0):
    """Assemble one monolithic array over region from valid data (diagnostics)."""
    out = np.full(tuple(region.extents()), default, dtype=fa.dtype)
    for i in range(len(fa.ba)):
        ov = fa.ba[i].intersect(region)
        if ov.is_empty():
            continue
        idx = tuple(
            slice(ov.lo[d] - region.lo[d], ov.hi[d] - region.lo[d] + 1)
            for d in range(fa.dim)
        )
        out[idx] = fa.fab(i).slice(ov, comp)
    return out
