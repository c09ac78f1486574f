"""Distributed single-level data containers.

A Fab is one box's data: ncomp components stored component-major, each a
D-dimensional block covering the box grown by ngrow ghost cells.  A
FabArray pairs a BoxArray with a DistributionMapping and holds one Fab per
box; because every logical rank lives in this process, all Fabs are
reachable, but data never crosses rank boundaries except through the
Transport.

Ghost exchange, inter-container copy, overlap summation, coarse/fine
patch filling and flux-register refluxing (coarse_fine) share one
machinery: a cached CommPlan of copy records, executed in two phases
(stage every source value, then apply records in one global order).  The
global order makes results bit-identical no matter how boxes are spread
over ranks.  Plans are cached per layout uid and evicted when a layout
they key on is garbage collected, so the cache holds plans for live
layouts only.  Execution checks that every remote message the plan
expects arrives exactly once and that no other message does.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from . import counters
from .boxarray import on_free
from .index_space import IntVect, box_diff
from .transport import TransportError


class Fab:
    """Data for one box: shape (ncomp, *extents(grow(box, ngrow)))."""

    __slots__ = ("box", "gbox", "ncomp", "ngrow", "data")

    def __init__(self, box, ncomp=1, ngrow=0, dtype=np.float64):
        self.box = box
        self.ngrow = int(ngrow)
        self.ncomp = int(ncomp)
        self.gbox = box.grow(self.ngrow) if self.ngrow else box
        self.data = np.zeros((self.ncomp,) + tuple(self.gbox.extents()), dtype=dtype)

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


class FabArray:
    """One Fab per box of a BoxArray, assigned to ranks by a DistributionMapping."""

    def __init__(self, ba, dm, ncomp=1, ngrow=0, dtype=np.float64):
        if len(ba) != len(dm):
            raise ValueError("BoxArray and DistributionMapping lengths differ")
        self.ba = ba
        self.dm = dm
        self.ncomp = int(ncomp)
        self.ngrow = int(ngrow)
        self.dtype = np.dtype(dtype)
        self.fabs = {i: Fab(ba[i], ncomp, ngrow, dtype) for i in range(len(ba))}

    @property
    def dim(self):
        return self.ba.dim

    def fab(self, i):
        return self.fabs[i]

    def setval(self, value, comp=None, ghosts=True):
        for f in self.fabs.values():
            f.setval(value, comp, ghosts)
        return self

# ---------------------------------------------------------------------------
# communication plans
# ---------------------------------------------------------------------------


class CopyRecord:
    """One congruent box-to-box copy: src cell c maps to dst cell c + shift.

    Only coordinates must agree: the flux register copies face-typed coarse
    fluxes into registers indexed by the adjacent (cell-typed) coarse cell.
    """

    __slots__ = ("src_index", "dst_index", "src_box", "dst_box", "shift")

    def __init__(self, src_index, dst_index, src_box, dst_box, shift):
        moved = src_box.shift(shift)
        assert (dst_box.lo, dst_box.hi) == (moved.lo, moved.hi)
        self.src_index = src_index
        self.dst_index = dst_index
        self.src_box = src_box
        self.dst_box = dst_box
        self.shift = shift

    def sort_key(self):
        return (
            self.dst_index,
            self.dst_box.lo,
            self.src_index,
            self.shift,
        )


class CommPlan:
    """An ordered list of copy records; the order is the apply order.

    Records are sorted by order (CopyRecord.sort_key by default); with
    order=None they are kept as given, for plans whose records add to the
    same cell more than once in a sequence that fixes the result's bytes.
    """

    __slots__ = ("records",)

    def __init__(self, records, order=CopyRecord.sort_key):
        self.records = list(records) if order is None else sorted(records, key=order)

    def __len__(self):
        return len(self.records)

    def pairs(self, dm_src, dm_dst):
        """Group record ids by (src_rank, dst_rank), preserving plan order."""
        groups = {}
        for rid, rec in enumerate(self.records):
            key = (dm_src[rec.src_index], dm_dst[rec.dst_index])
            groups.setdefault(key, []).append(rid)
        return groups


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
    """All wrap displacement vectors to consider, the zero shift first."""
    ext = domain.extents()
    choices = []
    for d in range(dim):
        choices.append((-ext[d], 0, ext[d]) if periodic[d] else (0,))
    shifts = [IntVect(s) for s in itertools.product(*choices)]
    shifts.sort(key=lambda v: (any(v), v))
    return shifts


def _normalize_periodic(periodic, dim):
    if periodic is None:
        return (False,) * dim
    if isinstance(periodic, bool):
        return (periodic,) * dim
    return tuple(bool(p) for p in periodic)


def build_plan_fill_boundary(ba, ngrow, domain, periodic=None):
    """Records filling each box's ghost region from other boxes' valid cells
    (periodic images included); cached per (layout, ngrow, wrap, domain)."""
    periodic = _normalize_periodic(periodic, ba.dim)
    key = _plan_key("fill", (ba,), ngrow, periodic, domain)
    return _cached_plan(key, lambda: _build_fill(ba, ngrow, domain, periodic))


def _build_fill(ba, ngrow, domain, periodic):
    for d in range(ba.dim):
        if periodic[d] and ngrow > domain.extents()[d]:
            raise ValueError("ghost width exceeds domain extent in a periodic dimension")
    shifts = _periodic_shifts(domain, periodic, ba.dim)
    records = []
    for j in range(len(ba)):
        valid = ba[j]
        for piece in box_diff(valid.grow(ngrow), valid):
            for s in shifts:
                probe = piece.shift(-s)
                for i, ov in ba.intersections(probe):
                    if i == j and s == IntVect.zero(ba.dim):
                        continue
                    records.append(CopyRecord(i, j, ov, ov.shift(s), s))
    return CommPlan(records)


def build_plan_copy(dst_ba, src_ba, domain=None, periodic=None, ngrow=0):
    """Records writing dst cells (valid, grown by ngrow ghost cells) from
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
        shifts = [IntVect.zero(dst_ba.dim)]
    else:
        shifts = _periodic_shifts(domain, periodic, dst_ba.dim)
    records = []
    for j in range(len(dst_ba)):
        target = dst_ba[j].grow(ngrow)
        for s in shifts:
            for i, ov in src_ba.intersections(target.shift(-s)):
                records.append(CopyRecord(i, j, ov, ov.shift(s), s))
    return CommPlan(records)


def build_plan_sum_boundary(ba, ngrow, domain, periodic=None):
    """Transpose of the fill plan: ghost regions flow back onto valid cells."""
    periodic = _normalize_periodic(periodic, ba.dim)
    key = _plan_key("sum", (ba,), ngrow, periodic, domain)

    def build():
        fill = _build_fill(ba, ngrow, domain, periodic)
        recs = [
            CopyRecord(r.dst_index, r.src_index, r.dst_box, r.src_box, -r.shift)
            for r in fill.records
        ]
        return CommPlan(recs)

    return _cached_plan(key, build)


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------


def _execute_plan(plan, src_fa, dst_fa, transport, combine):
    """Two-phase execution: stage every source slice, then apply records in
    plan order as combine(dst_view, src_values, record).  Remote slices ride
    one aggregated buffer per rank pair, tagged with its record ids.

    Raises TransportError when a remote message the plan expects does not
    arrive, arrives twice, or a message it does not expect is drained."""
    nranks = transport.nranks
    if src_fa.dm.nranks != nranks or dst_fa.dm.nranks != nranks:
        raise ValueError("transport rank count differs from the distribution maps")
    groups = plan.pairs(src_fa.dm, dst_fa.dm)
    staged = [None] * len(plan)
    expected = {}
    # local records stage by direct copy; remote ones pack one buffer per pair
    for (sr, dr), rids in sorted(groups.items()):
        if sr == dr:
            for rid in rids:
                rec = plan.records[rid]
                staged[rid] = src_fa.fab(rec.src_index).slice(rec.src_box).copy()
        else:
            parts = [
                src_fa.fab(plan.records[rid].src_index)
                .slice(plan.records[rid].src_box)
                .ravel()
                for rid in rids
            ]
            tag = tuple(rids)
            expected[(sr, dr)] = tag
            transport.send(sr, dr, tag, np.concatenate(parts))
    for dr in range(nranks):
        for sr, rids, buf in transport.drain(dr):
            if expected.pop((sr, dr), None) != rids:
                raise TransportError(sr, dr, "unexpected or duplicated message")
            offset = 0
            for rid in rids:
                rec = plan.records[rid]
                n = rec.src_box.num_cells() * src_fa.ncomp
                shape = (src_fa.ncomp,) + tuple(rec.src_box.extents())
                staged[rid] = buf[offset : offset + n].reshape(shape)
                offset += n
            if offset != buf.size:
                raise ValueError("buffer size mismatch while unpacking")
    if expected:
        sr, dr = min(expected)
        raise TransportError(sr, dr, f"{len(expected)} expected message(s) never arrived")
    for rid, rec in enumerate(plan.records):
        combine(dst_fa.fab(rec.dst_index).slice(rec.dst_box), staged[rid], rec)


def fill_boundary(fa, transport, domain, periodic=None):
    """Fill every in-domain (or periodic-image) ghost cell from the valid
    cell it shadows.  Out-of-domain non-periodic ghosts are left untouched."""
    if fa.ngrow == 0:
        return
    plan = build_plan_fill_boundary(fa.ba, fa.ngrow, domain, periodic)

    def combine(dst, src, rec):
        dst[...] = src

    _execute_plan(plan, fa, fa, transport, combine)


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

    def combine(dst, src, rec):
        dst[...] = src

    _execute_plan(plan, src_fa, dst_fa, transport, combine)


def sum_boundary(fa, transport, domain, periodic=None):
    """Add every ghost copy of a cell back onto that cell's valid value.

    The apply order is the plan order, fixed at build time, so repeated
    runs and different rank counts sum in exactly the same sequence."""
    if fa.ngrow == 0:
        return
    plan = build_plan_sum_boundary(fa.ba, fa.ngrow, domain, periodic)

    def combine(dst, src, rec):
        dst[...] += src

    _execute_plan(plan, fa, fa, transport, combine)
    for f in fa.fabs.values():
        for piece in box_diff(f.gbox, f.box):
            f.slice(piece)[...] = 0


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
