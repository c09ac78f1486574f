"""Kernels against direct references: an O(n^2) pair search, a per-particle
deposit loop, linear fields that CIC must reproduce, and box-local calls
that the batched CIC form must reproduce."""

import numpy as np
import pytest

from amrkit.kernels import deposit_cic, gather_cic, neighbor_pairs


def _brute_pairs(pos, cutoff):
    """Every (i < j) with |pos_i - pos_j| <= cutoff, summing squares in the
    same per-dimension order as the kernel so boundary pairs agree."""
    n, dim = pos.shape
    i, j = np.triu_indices(n, k=1)
    d2 = np.zeros(i.shape[0])
    for d in range(dim):
        dd = pos[i, d] - pos[j, d]
        d2 += dd * dd
    keep = d2 <= cutoff * cutoff
    return np.stack([i[keep], j[keep]], axis=1).astype(np.int64)


def _check_layout(pairs):
    assert pairs.dtype == np.int64
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert np.all(pairs[:, 0] < pairs[:, 1])
    key = np.lexsort((pairs[:, 1], pairs[:, 0]))
    assert np.array_equal(key, np.arange(pairs.shape[0]))


def _sample(rng, dim, n, cutoff):
    """Random points in [lo, hi), a few clamped in from outside it, and a
    lattice of points sitting exactly on bin edges."""
    inside = rng.random((n, dim))
    outside = rng.random((n // 10, dim)) * 1.4 - 0.2
    ticks = np.arange(0.0, 1.0, cutoff)
    edges = np.stack(np.meshgrid(*([ticks] * dim), indexing="ij"), -1)
    return np.concatenate([inside, outside, edges.reshape(-1, dim)])


@pytest.mark.parametrize("dim,n", [(1, 300), (2, 800), (3, 1000)])
def test_neighbor_pairs_match_brute_force(rng, dim, n):
    cutoff = 0.125  # dyadic, so lattice points at exactly cutoff are kept
    pos = _sample(rng, dim, n, cutoff)
    got = neighbor_pairs(pos, np.zeros(dim), np.ones(dim), cutoff)
    _check_layout(got)
    assert np.array_equal(got, _brute_pairs(pos, cutoff))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_neighbor_pairs_empty_and_single(dim):
    for n in (0, 1):
        got = neighbor_pairs(np.full((n, dim), 0.5), np.zeros(dim), np.ones(dim), 0.1)
        assert got.shape == (0, 2)
        assert got.dtype == np.int64


@pytest.mark.parametrize("dim", [2, 3])
def test_neighbor_pairs_unfiltered_is_superset(rng, dim):
    pos = _sample(rng, dim, 600, 0.125)
    lo, hi = np.zeros(dim), np.ones(dim)
    plain = neighbor_pairs(pos, lo, hi, 0.125)
    wide = neighbor_pairs(pos, lo, hi, 0.125, max_dist=np.inf)
    _check_layout(wide)
    assert wide.shape[0] > plain.shape[0]
    assert {tuple(p) for p in plain} <= {tuple(p) for p in wide}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_deposit_cic_conserves_and_adds_in_particle_order(rng, dim):
    ncell = 8
    pos = 0.1 + 0.8 * rng.random((200, dim))  # every stencil inside the grid
    w = rng.random(200) + 0.5
    plo, dxinv, arr_lo = np.zeros(dim), np.full(dim, float(ncell)), np.zeros(dim, np.int64)
    out = np.zeros((ncell,) * dim)
    deposit_cic(pos, w, plo, dxinv, arr_lo, out)
    assert abs(out.sum() - w.sum()) <= 1e-12 * w.sum()

    ref = np.zeros_like(out)
    for p in range(pos.shape[0]):
        xc = (pos[p] - plo) * dxinv - 0.5
        il = np.floor(xc).astype(np.int64)
        fr = xc - il
        for c in range(1 << dim):
            bits = [(c >> (dim - 1 - d)) & 1 for d in range(dim)]
            wc = w[p]
            for d in range(dim):
                wc *= fr[d] if bits[d] else 1.0 - fr[d]
            ref[tuple(il + bits - arr_lo)] += wc
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gather_cic_reproduces_linear_field(rng, dim):
    ncell = 8
    dxinv = np.full(dim, float(ncell))
    arr_lo = np.full(dim, -1, dtype=np.int64)  # one ghost layer
    coef = np.array([2.0, -3.0, 0.5][:dim])
    centers = (np.arange(-1, ncell + 1) + 0.5) / ncell
    grid = np.full((ncell + 2,) * dim, 0.25)
    for d in range(dim):
        shape = [1] * dim
        shape[d] = -1
        grid = grid + coef[d] * centers.reshape(shape)
    # dyadic positions keep every product and sum exact
    pos = rng.integers(0, 64 * ncell, size=(300, dim)) / (64.0 * ncell)
    got = gather_cic(pos, np.zeros(dim), dxinv, arr_lo, grid)
    assert np.array_equal(got, pos @ coef + 0.25)
    assert gather_cic(np.empty((0, dim)), np.zeros(dim), dxinv, arr_lo, grid).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_form_matches_box_local_calls(rng, dim):
    # boxes of different shapes and places, one without particles, laid
    # out as segments of one flat array
    plo, dxinv = np.full(dim, -0.5), np.full(dim, 4.0)
    counts = np.array([37, 0, 12, 50])
    lo = rng.integers(-6, 6, size=(4, dim))
    ext = rng.integers(2, 7, size=(4, dim))
    size = ext.prod(axis=1)
    base = np.cumsum(size) - size
    stride = np.ones_like(ext)
    for d in reversed(range(dim - 1)):
        stride[:, d] = stride[:, d + 1] * ext[:, d + 1]
    pos, w, grids = [], [], []
    for k, n in enumerate(counts):
        # every stencil inside its box: cell units in [lo + 0.5, lo + ext - 0.5)
        u = lo[k] + 0.5 + (ext[k] - 1) * rng.random((n, dim))
        pos.append(plo + u / dxinv)
        w.append(rng.standard_normal(n))
        w[k][::5] = -0.0
        grids.append(rng.standard_normal(tuple(ext[k])))
    per = [np.repeat(a, counts, axis=0) for a in (lo, stride, base)]

    flat = np.zeros(size.sum())
    deposit_cic(np.concatenate(pos), np.concatenate(w), plo, dxinv, per[0], flat, *per[1:])
    for k in range(len(counts)):
        out = np.zeros(tuple(ext[k]))
        deposit_cic(pos[k], w[k], plo, dxinv, lo[k], out)
        assert flat[base[k] : base[k] + size[k]].tobytes() == out.tobytes()

    arena = np.concatenate([g.ravel() for g in grids])
    got = gather_cic(np.concatenate(pos), plo, dxinv, per[0], arena, *per[1:])
    want = [gather_cic(pos[k], plo, dxinv, lo[k], grids[k]) for k in range(len(counts))]
    assert got.tobytes() == np.concatenate(want).tobytes()
