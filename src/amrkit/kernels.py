"""Hot numeric kernels in numpy: CIC deposit/gather and neighbour pairs.

The invariant that matters is rank invariance.  np.add.at applies updates
strictly in index order, so a deposit adds its contributions in particle
order, corner order within a particle, whatever the tiling or rank count
that produced the particle arrays; equal inputs give bitwise-equal grids.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# deposition / gather (cloud-in-cell, linear weights on cell centers)
# ---------------------------------------------------------------------------


def deposit_cic(pos, weights, plo, dxinv, arr_lo, out):
    """Scatter weights onto out (a box-local array) with linear CIC stencils.

    Particle i contributes to the 2**D cell centers bracketing it; updates
    are applied in particle order, corner order within a particle.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    plo = np.asarray(plo, dtype=np.float64)
    dxinv = np.asarray(dxinv, dtype=np.float64)
    arr_lo = np.asarray(arr_lo, dtype=np.int64)
    n, dim = pos.shape
    if n == 0:
        return
    ncorner = 1 << dim
    xc = (pos - plo) * dxinv - 0.5
    il = np.floor(xc).astype(np.int64)
    fr = xc - il
    shape = out.shape
    flat = out.reshape(-1)
    idx = np.zeros((n, ncorner), dtype=np.int64)
    wc = np.broadcast_to(weights[:, None], (n, ncorner)).copy()
    for d in range(dim):
        stride = 1
        for dd in range(d + 1, dim):
            stride *= shape[dd]
        bit = 1 << (dim - 1 - d)
        for c in range(ncorner):
            off = 1 if (c & bit) else 0
            idx[:, c] += (il[:, d] + off - arr_lo[d]) * stride
            wc[:, c] *= fr[:, d] if off else (1.0 - fr[:, d])
    np.add.at(flat, idx.reshape(-1), wc.reshape(-1))


def gather_cic(pos, plo, dxinv, arr_lo, grid):
    """Interpolate grid (a box-local array) to particle positions, linearly."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    plo = np.asarray(plo, dtype=np.float64)
    dxinv = np.asarray(dxinv, dtype=np.float64)
    arr_lo = np.asarray(arr_lo, dtype=np.int64)
    grid = np.ascontiguousarray(grid)
    n, dim = pos.shape
    out = np.zeros(n)
    if n == 0:
        return out
    ncorner = 1 << dim
    xc = (pos - plo) * dxinv - 0.5
    il = np.floor(xc).astype(np.int64)
    fr = xc - il
    shape = grid.shape
    flat = grid.reshape(-1)
    for c in range(ncorner):
        lin = np.zeros(n, dtype=np.int64)
        w = np.ones(n)
        for d in range(dim):
            stride = 1
            for dd in range(d + 1, dim):
                stride *= shape[dd]
            if c & (1 << (dim - 1 - d)):
                lin += (il[:, d] + 1 - arr_lo[d]) * stride
                w = w * fr[:, d]
            else:
                lin += (il[:, d] - arr_lo[d]) * stride
                w = w * (1.0 - fr[:, d])
        out += w * flat[lin]
    return out


# ---------------------------------------------------------------------------
# neighbor pairs via cell bins
# ---------------------------------------------------------------------------


def _pairs_numpy(pos, cell, order, bin_start, bin_count, nbins, strides, cutoff2):
    """Unsorted (i < j) pairs within sqrt(cutoff2) from the 3**D bins around
    each particle.  A half stencil visits every unordered pair of bins once:
    the own bin, keeping i < j, and the (3**D - 1) / 2 forward offsets, those
    whose first nonzero component is positive, ordering each pair as
    (min, max).  One pass per offset handles every bin at once: each
    particle in a bin is paired with the whole neighbour bin's slice of
    order."""
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
        nb = nc[src] @ strides
        cnt = bin_count[nb]
        total = int(cnt.sum())
        if total == 0:
            continue
        # candidate k of particle src[p] is entry k of its neighbour bin
        first = np.cumsum(cnt) - cnt
        within = np.arange(total, dtype=np.int64) - np.repeat(first, cnt)
        gi = np.repeat(src, cnt)
        gj = order[np.repeat(bin_start[nb], cnt) + within]
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


def neighbor_pairs(pos, lo, hi, cutoff, max_dist=None):
    """All index pairs (i < j) with |pos_i - pos_j| <= cutoff, sorted by (i, j).

    Particles are binned into boxes of side cutoff spanning [lo, hi); only
    the 3**D surrounding bins of each particle are searched.  Passing
    max_dist=inf returns every candidate pair from those bins unfiltered,
    for callers that apply their own acceptance test.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    n, dim = pos.shape
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    nbins = np.maximum(((hi - lo) / cutoff).astype(np.int64), 1)
    cell = np.minimum(((pos - lo) / cutoff).astype(np.int64), nbins - 1)
    cell = np.maximum(cell, 0)
    strides = np.empty(dim, dtype=np.int64)
    s = 1
    for d in range(dim - 1, -1, -1):
        strides[d] = s
        s *= int(nbins[d])
    lin = cell @ strides
    order = np.argsort(lin, kind="stable").astype(np.int64)
    bin_count = np.bincount(lin, minlength=s).astype(np.int64)
    bin_start = np.concatenate([[0], np.cumsum(bin_count)[:-1]]).astype(np.int64)
    reach = float(cutoff) if max_dist is None else float(max_dist)
    cutoff2 = reach * reach
    pairs = _pairs_numpy(pos, cell, order, bin_start, bin_count, nbins, strides, cutoff2)
    if pairs.shape[0]:
        key = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[key]
    return pairs
