"""Hot numeric kernels in numpy: CIC deposit/gather and neighbour pairs.

The invariant that matters is rank invariance.  np.add.at applies updates
strictly in index order, so a deposit adds its contributions in particle
order, corner order within a particle, whatever the tiling or rank count
that produced the particle arrays; equal inputs give bitwise-equal grids.

The CIC kernels address one flat array.  In the box-local form that array
is a D-dimensional box (lo corner arr_lo, C order).  In the batched form
each particle names its own box inside the flat array, by a lo corner, C
strides and a base offset, so one call serves every tile or grid of a
level: particle_to_mesh deposits into per-tile buffers laid out as
segments of one array, and mesh_to_particle gathers straight from a
FabArray arena.  Per particle, the arithmetic is the same in both forms.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# deposition / gather (cloud-in-cell, linear weights on cell centers)
# ---------------------------------------------------------------------------


def _c_strides(ext):
    """C-order element strides of boxes with extents ext, (n, D)."""
    ones = np.ones((ext.shape[0], 1), dtype=np.int64)
    return np.concatenate([np.cumprod(ext[:, :0:-1], axis=1)[:, ::-1], ones], axis=1)


def _stencil(pos, plo, dxinv, arr_lo, shape, stride, base):
    """Flat index of the 2**D cell centers bracketing each particle, (n,
    2**D) in corner order (bit D-1-d of the corner selects the upper
    neighbor along d), the fractional offsets fr (n, D) and the corner bits
    (2**D, D).  stride None means the C strides of shape and base 0."""
    dim = pos.shape[1]
    xc = (pos - np.asarray(plo, dtype=np.float64)) * np.asarray(dxinv, dtype=np.float64) - 0.5
    il = np.floor(xc).astype(np.int64)
    fr = xc - il
    if stride is None:
        stride = np.cumprod((tuple(shape[1:]) + (1,))[::-1])[::-1]
    stride = np.asarray(stride, dtype=np.int64)
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    lin = ((il - np.asarray(arr_lo, dtype=np.int64)) * stride).sum(axis=1)
    if base is not None:
        lin += base
    step = stride @ bits.T if stride.ndim == 2 else bits @ stride
    return lin[:, None] + step, fr, bits


def deposit_cic(pos, weights, plo, dxinv, arr_lo, out, stride=None, base=None):
    """Scatter weights onto out with linear CIC stencils.

    Box-local form: out is a D-dimensional array whose lo corner is
    arr_lo.  Batched form: out is flat, and arr_lo and stride (n, D) and
    base (n,) give each particle's box as out[base + (cell - arr_lo) .
    stride].  Particle i contributes to the 2**D cell centers bracketing
    it; each contribution is ((w * f_0) * f_1) ... and updates are applied
    in particle order, corner order within a particle.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    n, dim = pos.shape
    if n == 0:
        return
    idx, fr, bits = _stencil(pos, plo, dxinv, arr_lo, out.shape, stride, base)
    wc = weights[:, None]
    for d in range(dim):
        wc = wc * np.where(bits[:, d], fr[:, d, None], 1.0 - fr[:, d, None])
    np.add.at(out.reshape(-1), idx.reshape(-1), wc.reshape(-1))


def gather_cic(pos, plo, dxinv, arr_lo, grid, stride=None, base=None):
    """Interpolate grid to particle positions, linearly.

    grid and the indexing arguments take the two forms of deposit_cic.
    Each value is accumulated corner by corner from 0 as out += w *
    grid[corner], with w = ((1 * f_0) * f_1) ...
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    n, dim = pos.shape
    out = np.zeros(n)
    if n == 0:
        return out
    idx, fr, bits = _stencil(pos, plo, dxinv, arr_lo, np.shape(grid), stride, base)
    vals = np.ascontiguousarray(grid).reshape(-1)[idx]
    w = np.ones((n, 1))
    for d in range(dim):
        w = w * np.where(bits[:, d], fr[:, d, None], 1.0 - fr[:, d, None])
    for c in range(1 << dim):
        out += w[:, c] * vals[:, c]
    return out


# ---------------------------------------------------------------------------
# neighbor pairs via cell bins
# ---------------------------------------------------------------------------


def _pairs_numpy(pos, cell, order, bin_start, nbins, strides, base, cutoff2):
    """Unsorted (i < j) pairs within sqrt(cutoff2) from the 3**D bins around
    each particle.  A half stencil visits every unordered pair of bins once:
    the own bin, keeping i < j, and the (3**D - 1) / 2 forward offsets, those
    whose first nonzero component is positive, ordering each pair as
    (min, max).  One pass per offset handles every bin at once: each
    particle in a bin is paired with the whole neighbour bin's slice of
    order.  Bin b holds order[bin_start[b]:bin_start[b + 1]]; nbins,
    strides and base are per particle: its segment's bin lattice, C
    strides and first bin."""
    dim = pos.shape[1]
    out = []
    offsets = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    lead = offsets[np.arange(len(offsets)), np.argmax(offsets != 0, axis=1)]
    for off in offsets[lead >= 0]:
        nc = cell + off
        inside = np.all((nc >= 0) & (nc < nbins), axis=1)
        src = np.nonzero(inside)[0]
        nb = base[src] + (nc[src] * strides[src]).sum(axis=1)
        first_slot = bin_start[nb]
        cnt = bin_start[nb + 1] - first_slot
        total = int(cnt.sum())
        if total == 0:
            continue
        # candidate k of particle src[p] is entry k of its neighbour bin
        first = np.cumsum(cnt) - cnt
        within = np.arange(total, dtype=np.int64) - np.repeat(first, cnt)
        gi = np.repeat(src, cnt)
        gj = order[np.repeat(first_slot, cnt) + within]
        if off.any():
            gi, gj = np.minimum(gi, gj), np.maximum(gi, gj)
        else:
            keep = gi < gj
            gi, gj = gi[keep], gj[keep]
        d2 = np.zeros(gi.shape[0])
        for d in range(dim):
            dd = pos[gi, d] - pos[gj, d]
            d2 += dd * dd
        keep = d2 <= cutoff2
        if keep.any():
            out.append(np.stack([gi[keep], gj[keep]], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out, axis=0).astype(np.int64, copy=False)


def neighbor_pairs(pos, lo, hi, cutoff, max_dist=None, segment=None):
    """All index pairs (i < j) with |pos_i - pos_j| <= cutoff, sorted by (i, j).

    Particles are binned into boxes of side cutoff spanning [lo, hi); only
    the 3**D surrounding bins of each particle are searched.  Passing
    max_dist=inf returns every candidate pair from those bins unfiltered,
    for callers that apply their own acceptance test.  With segment, an
    (n,) array of segment ids, lo and hi hold one row per segment: the
    segment is the leading bin key, each segment is binned over its own
    [lo, hi), and only particles of one segment pair up, so one call does
    the work of one call per segment.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    n, dim = pos.shape
    lo = np.asarray(lo, dtype=np.float64).reshape(-1, dim)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1, dim)
    if segment is None:
        segment = np.zeros(n, dtype=np.int64)
    seg = np.asarray(segment, dtype=np.int64)
    nbins = np.maximum(((hi - lo) / cutoff).astype(np.int64), 1)
    strides = _c_strides(nbins)
    size = nbins.prod(axis=1)
    base = np.cumsum(size) - size
    nbins, strides, base = nbins[seg], strides[seg], base[seg]
    cell = np.minimum(((pos - lo[seg]) / cutoff).astype(np.int64), nbins - 1)
    cell = np.maximum(cell, 0)
    lin = base + (cell * strides).sum(axis=1)
    order = np.argsort(lin, kind="stable").astype(np.int64)
    nb = int(size.sum())
    bin_start = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(lin, minlength=nb), out=bin_start[1:])
    reach = float(cutoff) if max_dist is None else float(max_dist)
    cutoff2 = reach * reach
    pairs = _pairs_numpy(pos, cell, order, bin_start, nbins, strides, base, cutoff2)
    if pairs.shape[0]:
        key = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[key]
    return pairs
