"""Inter-level data motion: interpolation, restriction, patch fill, refluxing.

Flux/sign conventions used throughout (pinned by the conservation tests):
face i of dimension d sits between cells i-1 and i; a cell update is
phi[i] -= dt/dx * (F[i+1] - F[i]).  The flux register accumulates
(time-averaged fine flux) - (coarse flux) per coarse face on the
coarse/fine boundary; refluxing adds register * dt/dx to the adjacent
uncovered coarse cell, with sign +1 when the cell sits on the high side of
the fine region and -1 on the low side.
"""

from __future__ import annotations

import threading

import numpy as np

from .boxarray import BoxArray, on_free
from .distribution import DistributionMapping
from .fabarray import (
    CommPlan,
    FabArray,
    _cached_plan,
    _execute_plan,
    _normalize_periodic,
    _plan_key,
    _plan_of,
    parallel_copy,
)
from .index_space import IndexType, IntVect, as_intvect


_layout_memo = {}
# reentrant: evicting a layout can free a derived one whose finalizer
# evicts again on the same thread
_layout_lock = threading.RLock()


def _evict_layouts(uid):
    with _layout_lock:
        for key in list(_layout_memo):
            if key[0] == uid:
                _layout_memo.pop(key, None)


def _derived_layout(ba, how, derive):
    """One stable derived layout (and uid) per (ba, how), so communication
    plans built against it stay cached across calls; freed with ba."""
    key = (ba.uid, how)
    with _layout_lock:
        hit = _layout_memo.get(key)
    if hit is not None:
        return hit
    on_free(ba, _evict_layouts)
    out = derive()
    with _layout_lock:
        return _layout_memo.setdefault(key, out)


def coarsened_layout(ba, ratio):
    """Memoized ba.coarsen(ratio)."""
    return _derived_layout(ba, ("coarsen", ratio), lambda: ba.coarsen(ratio))


def face_layout(ba, d):
    """Memoized ba.convert to the face type of dimension d: the layout of
    per-box face fluxes."""
    return _derived_layout(
        ba, ("face", d), lambda: ba.convert(IndexType.face(ba.dim, d))
    )


def _child_offsets(r):
    """Fractional displacement of each child cell center from its parent's."""
    return (np.arange(r) + 0.5) / r - 0.5


def _limited_slope(core, lo, hi):
    """Minmod-limited central difference, zero at extrema."""
    dl = core - lo
    dr = hi - core
    pos = (dl > 0) & (dr > 0)
    neg = (dl < 0) & (dr < 0)
    return np.where(pos, np.minimum(dl, dr), np.where(neg, np.maximum(dl, dr), 0.0))


def interp_block(block, ratio, kind, margin=1):
    """Interpolate one coarse block (ncomp leading axis, margin cells of
    padding per side) to the refined image of its core region."""
    dim = block.ndim - 1
    core_idx = (slice(None),) + tuple(
        slice(margin, block.shape[1 + d] - margin) for d in range(dim)
    )
    core = block[core_idx]
    fine = core
    for d in range(dim):
        fine = np.repeat(fine, ratio[d], axis=1 + d)
    if kind == "pc":
        return fine.copy() if fine is core else fine
    if kind != "linear":
        raise ValueError(f"unknown interpolation kind {kind!r}")
    if margin < 1:
        raise ValueError("linear interpolation needs a margin of 1 coarse cell")
    for d in range(dim):
        lo_idx = (slice(None),) + tuple(
            slice(margin - 1, block.shape[1 + k] - margin - 1)
            if k == d
            else slice(margin, block.shape[1 + k] - margin)
            for k in range(dim)
        )
        hi_idx = (slice(None),) + tuple(
            slice(margin + 1, block.shape[1 + k] - margin + 1)
            if k == d
            else slice(margin, block.shape[1 + k] - margin)
            for k in range(dim)
        )
        slope = _limited_slope(core, block[lo_idx], block[hi_idx])
        for k in range(dim):
            slope = np.repeat(slope, ratio[k], axis=1 + k)
        offs = np.tile(_child_offsets(ratio[d]), core.shape[1 + d])
        shape = [1] * (dim + 1)
        shape[1 + d] = len(offs)
        fine = fine + slope * offs.reshape(shape)
    return fine


def average_down(fine, crse, ratio, transport, mode="average"):
    """Replace covered coarse cells with the mean (or lowest-corner
    injection) of their fine children.

    The fine layout must be coarsenable by the ratio so per-box restriction
    lands on whole coarse cells.
    """
    ratio = as_intvect(ratio, fine.dim)
    if not fine.ba.coarsenable(ratio):
        raise ValueError("fine BoxArray is not coarsenable by the given ratio")
    if mode not in ("average", "injection"):
        raise ValueError(f"unknown restriction mode {mode!r}")
    cba = coarsened_layout(fine.ba, ratio)
    tmp = FabArray(cba, fine.dm, fine.ncomp, 0, fine.dtype)
    for i in range(len(fine.ba)):
        src = fine.fab(i).valid()
        if mode == "injection":
            idx = (slice(None),) + tuple(
                slice(0, None, ratio[d]) for d in range(fine.dim)
            )
            tmp.fab(i).valid()[...] = src[idx]
        else:
            shape = [fine.ncomp]
            for d in range(fine.dim):
                shape.extend([cba[i].extents()[d], ratio[d]])
            axes = tuple(2 + 2 * d for d in range(fine.dim))
            tmp.fab(i).valid()[...] = src.reshape(shape).mean(axis=axes)
    parallel_copy(crse, tmp, transport)


def interp_to_fine(fine, crse, ratio, transport, method="pc"):
    """Fill the whole valid region of a fine FabArray by interpolation.

    Parents are staged onto the coarsened fine layout through the
    transport, then interpolated box-locally (piecewise constant needs no
    margin, so nesting alone guarantees coverage).
    """
    ratio = as_intvect(ratio, fine.dim)
    if not fine.ba.coarsenable(ratio):
        raise ValueError("fine BoxArray is not coarsenable by the given ratio")
    margin = 1 if method == "linear" else 0
    stage = FabArray(coarsened_layout(fine.ba, ratio), fine.dm, fine.ncomp, margin, fine.dtype)
    stage.setval(np.nan)
    parallel_copy(stage, crse, transport, ngrow=margin)
    for i in range(len(fine.ba)):
        block = stage.fab(i).data
        core = block[(slice(None),) + (slice(margin, -margin or None),) * fine.dim]
        if np.isnan(core).any():
            raise ValueError("fine region has parent cells not covered by the coarse data")
        fine.fab(i).valid()[...] = interp_block(block, ratio, method, margin)


def snapshot_valid(fa):
    """Ghost-free copy of a FabArray's valid data on the same layout."""
    out = FabArray(fa.ba, fa.dm, fa.ncomp, 0, fa.dtype)
    out.arena[...] = fa.valid_values()
    return out


def fill_patch(
    dst,
    crse_old,
    crse_new,
    time_weight,
    ratio,
    transport,
    domain,
    periodic=None,
    kind="linear",
):
    """Fill dst (valid + ghost cells) from its own fine data where available,
    else from time-blended coarse data interpolated to the fine level.

    The blend (1-w) * crse_old + w * crse_new happens before interpolation.
    Fine copies win over interpolation wherever dst's valid cells (or their
    periodic images) cover a cell.  domain/periodic describe the FINE level
    index space.  Raises if an in-domain cell is left unfilled.
    """
    if not 0.0 <= time_weight <= 1.0:
        raise ValueError("time_weight must lie in [0, 1]")
    dim = dst.dim
    ratio = as_intvect(ratio, dim)
    # the interpolation pass below overwrites dst wholesale, so the fine
    # data must be staged out of it first
    fine_src = snapshot_valid(dst)
    if time_weight == 0.0:
        blended = crse_old
    elif time_weight == 1.0 or crse_old is None:
        blended = crse_new
    else:
        blended = FabArray(crse_new.ba, crse_new.dm, crse_new.ncomp, 0, crse_new.dtype)
        blended.arena[...] = (1.0 - time_weight) * crse_old.valid_values() + (
            time_weight
        ) * crse_new.valid_values()
    margin = 1 if kind == "linear" else 0
    gc = -(-dst.ngrow // max(min(ratio), 1)) + max(margin, 1)
    stage = FabArray(coarsened_layout(dst.ba, ratio), dst.dm, dst.ncomp, gc, dst.dtype)
    stage.setval(np.nan)
    parallel_copy(stage, blended, transport, domain.coarsen(ratio), periodic, ngrow=gc)
    for j in range(len(dst.ba)):
        f = dst.fab(j)
        parents = f.gbox.coarsen(ratio)
        block_box = parents.grow(margin)
        block = stage.fab(j).slice(block_box)
        fine = interp_block(block, ratio, kind, margin)
        flo = parents.refine(ratio).lo
        idx = tuple(
            slice(f.gbox.lo[d] - flo[d], f.gbox.hi[d] - flo[d] + 1) for d in range(dim)
        )
        f.data[...] = fine[(slice(None),) + idx]
    parallel_copy(dst, fine_src, transport, domain, periodic, ngrow=dst.ngrow)
    # NaN marks a cell neither level filled; max propagates NaN, so one pass
    # over the arena clears the common case
    if not (dst.arena.size and np.isnan(dst.arena.max())):
        return
    per = _normalize_periodic(periodic, dim)
    check = domain.grow(IntVect(dst.ngrow if per[d] else 0 for d in range(dim)))
    for j in range(len(dst.ba)):
        f = dst.fab(j)
        ov = f.gbox.intersect(check)
        if not ov.is_empty() and np.isnan(f.slice(ov)).any():
            raise ValueError(
                f"box {j}: in-domain cells coverable by neither level"
            )


# ---------------------------------------------------------------------------
# flux register
# ---------------------------------------------------------------------------


class FluxRegister:
    """Per coarse face on the fine-level boundary: (avg fine flux - coarse flux).

    There is one patch per (fine box k, dimension d, side), numbered
    p = (k * dim + d) * 2 + side with side 0 low and 1 high.  Patch p is a
    one-cell-thick slab holding (ncomp, *extents) values for the coarse
    faces on that side of the coarsened fine box, indexed by the coarse
    cell just outside it: the low-side face at plane f sits at cell f - 1,
    the high-side face at cell f.  Faces whose outside cell is covered by
    the fine level accumulate harmlessly and are skipped at reflux time.

    Ownership: patch p lives on the rank of fine box k (fine_dm[k]), so
    fine_add is rank-local; coarse fluxes and coarse cells live on the rank
    of their coarse box.  crse_add and reflux move data between the two
    through cached CommPlans executed over the Transport; their box algebra
    runs once per (fine layout, coarse layout) pair, on first use.

    Apply order: every register face receives exactly one coarse flux, so
    crse_add is order-free.  reflux can add to one coarse cell from several
    patches, so its rows are applied in generation order: patches in
    (k, d, side) order, then coarse boxes in ascending index, then the
    uncovered pieces in BoxArray.uncovered order.  A patch adds to a cell
    at most once, so the patch order alone fixes each cell's sum.
    """

    def __init__(self, fine_ba, fine_dm, ratio, ncomp=1):
        self.ratio = as_intvect(ratio, fine_ba.dim)
        self.ncomp = int(ncomp)
        if not fine_ba.coarsenable(self.ratio):
            raise ValueError("fine BoxArray is not coarsenable by the given ratio")
        self.fine_ba = fine_ba
        self.cba = coarsened_layout(fine_ba, self.ratio)
        self.dim = fine_ba.dim
        # per coarse box, dimension and side: the one-cell slab outside it
        b, dim = self.cba.bounds(), self.dim
        slabs = np.repeat(b, 2 * dim, axis=0).reshape(len(b), dim, 2, 2, dim)
        for d in range(dim):
            slabs[:, d, :, 0, d] = slabs[:, d, :, 1, d] = b[:, :, d] + [-1, 1]
        owners = [fine_dm[k] for k in range(len(fine_ba)) for _ in range(2 * self.dim)]
        self.reg = FabArray(
            BoxArray(slabs.reshape(-1, 2, dim), validate=False),
            DistributionMapping(owners, fine_dm.nranks),
            self.ncomp,
        )

    def _patch(self, k, d, side):
        return (k * self.dim + d) * 2 + side

    def zero(self):
        self.reg.setval(0.0)
        return self

    def crse_add(self, crse_fluxes, transport, domain, scale=1.0):
        """Subtract coarse face fluxes (times scale) on every register face.

        crse_fluxes holds one FabArray per dimension d on
        face_layout(crse_ba, d), distributed like the coarse cells.  A face
        plane shared by two coarse boxes is read once, from the box owning
        the cell on the face's high side (domain-top planes read from the
        box below).
        """
        if len(crse_fluxes) != self.dim:
            raise ValueError(f"expected {self.dim} flux FabArrays, got {len(crse_fluxes)}")

        for d, flux in enumerate(crse_fluxes):
            if flux.ncomp != self.ncomp:
                raise ValueError("component count mismatch")
            key = _plan_key(
                "crse_add", (self.fine_ba, flux.ba), self.ratio.coords, d, domain
            )
            plan = _cached_plan(key, lambda: self._build_crse_add(flux.ba, d, domain))
            # dst + (-scale) * src has the bits of dst - scale * src
            _execute_plan(plan, flux, self.reg, transport, "add", -scale)

    def _build_crse_add(self, flux_ba, d, domain):
        parts = []
        for side in (0, 1):
            p = self._patch(np.arange(len(self.cba)), d, side)
            # face index = outside cell index + off
            off = np.zeros(self.dim, dtype=np.int64)
            off[d] = 1 - side
            q, ci, lo, hi = flux_ba.intersections(self.reg.ba.bounds()[p] + off)
            # a box's top plane belongs to the box above it
            top = flux_ba.bounds()[ci, 1, d]
            keep = (lo[:, d] != top) | (top == domain.hi[d] + 1)
            lo, hi = lo[keep], hi[keep]
            parts.append((ci[keep], p[q[keep]], lo, hi, np.broadcast_to(-off, lo.shape)))
        return _plan_of(parts)

    def fine_add(self, k, fine_fluxes, scale=1.0):
        """Add the spatially averaged fine fluxes of fine box k, times scale.

        Call once per fine substep with scale = 1/nsubsteps to build the
        time average across a coarse step.  Rank-local: fine box k and its
        patches share a rank.
        """
        fb = self.fine_ba[k]
        for d in range(self.dim):
            flux = fine_fluxes[d]
            want = [self.ncomp] + [
                fb.extents()[kk] + (1 if kk == d else 0) for kk in range(self.dim)
            ]
            if list(flux.shape) != want:
                raise ValueError(
                    f"fine flux for dim {d} has shape {flux.shape}, expected {want}"
                )
            for side in (0, 1):
                data = self.reg.fab(self._patch(k, d, side)).data
                local = 0 if side == 0 else fb.extents()[d]
                plane_idx = (slice(None),) + tuple(
                    local if kk == d else slice(None) for kk in range(self.dim)
                )
                plane = flux[plane_idx]
                # spatial average over ratio^(D-1) fine faces per coarse face
                shape = [self.ncomp]
                axes = []
                for kk in range(self.dim):
                    if kk == d:
                        continue
                    shape.extend([fb.extents()[kk] // self.ratio[kk], self.ratio[kk]])
                    axes.append(len(shape) - 1)
                avg = plane.reshape(shape).mean(axis=tuple(axes)) if axes else plane
                data[...] += scale * avg.reshape(data.shape)

    def reflux(self, crse, transport, dt_over_dx, domain, periodic=None):
        """Apply register corrections to adjacent uncovered coarse cells.

        dt_over_dx: scalar or per-dimension sequence (coarse dt over coarse
        cell size).  Cells covered by the fine level are untouched; the
        adjacent cell may wrap around periodic dimensions.
        """
        periodic = _normalize_periodic(periodic, self.dim)
        if np.isscalar(dt_over_dx):
            dt_over_dx = [float(dt_over_dx)] * self.dim
        key = _plan_key(
            "reflux", (self.fine_ba, crse.ba), self.ratio.coords, periodic, domain
        )
        plan = _cached_plan(key, lambda: self._build_reflux(crse.ba, domain, periodic))

        # per register patch p = (k*dim + d)*2 + side: sign * dt_over_dx[d]
        p = np.arange(len(self.reg.ba))
        sign = np.where(p % 2 == 1, 1.0, -1.0)
        weights = sign * np.asarray(dt_over_dx, dtype=np.float64)[p // 2 % self.dim]
        _execute_plan(plan, self.reg, crse, transport, "add", weights)

    def _build_reflux(self, crse_ba, domain, periodic):
        adj = self.reg.ba.bounds()
        p = np.arange(len(adj))
        d = p // 2 % self.dim
        ext = np.array(domain.extents(), dtype=np.int64)[d]
        # a slab outside the domain wraps around a periodic dimension and
        # is dropped otherwise
        below = adj[p, 0, d] < np.array(domain.lo)[d]
        above = adj[p, 1, d] > np.array(domain.hi)[d]
        keep = ~(below | above) | np.array(periodic)[d]
        shift = np.zeros((len(adj), self.dim), dtype=np.int64)
        shift[p, d] = np.where(below, ext, np.where(above, -ext, 0))
        p, shift = p[keep], shift[keep]
        q, ci, lo, hi = crse_ba.intersections(adj[p] + shift[:, None])
        row, lo, hi = self.cba.uncovered(np.stack([lo, hi], axis=1))
        q, ci = q[row], ci[row]
        return CommPlan(p[q], ci, lo - shift[q], hi - shift[q], shift[q], ordered=False)
