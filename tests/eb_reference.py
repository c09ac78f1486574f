"""The whole-box cut-cell moment computation that amrkit used before cells
were certified by a Lipschitz bound, kept verbatim as the reference for the
gathered path in amrkit.eb: every cell is subsampled, on lattices over the
whole box."""

import itertools

import numpy as np

from amrkit.distribution import DistributionMapping
from amrkit.eb import COVERED, CUT, REGULAR, EBLevelData


def _eval_lattice(f, coords):
    """f over the tensor grid of per-dim coordinate vectors, shaped to it."""
    mesh = np.meshgrid(*coords, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return f(pts).reshape(mesh[0].shape)


def _axis_nodes(geom, b, d):
    return geom.prob_lo[d] + (
        np.arange(b.lo[d], b.hi[d] + 2) - geom.domain.lo[d]
    ) * geom.cell_size[d]


def _axis_centers(geom, b, d):
    return geom.prob_lo[d] + (
        np.arange(b.lo[d], b.hi[d] + 1) - geom.domain.lo[d] + 0.5
    ) * geom.cell_size[d]


def _axis_sub(geom, b, d, s):
    idx = np.arange(b.extents()[d] * s)
    return geom.prob_lo[d] + (
        (b.lo[d] - geom.domain.lo[d]) + (idx + 0.5) / s
    ) * geom.cell_size[d]


def _classify_box(f, geom, b):
    dim = b.dim
    nodes = _eval_lattice(f, [_axis_nodes(geom, b, d) for d in range(dim)])
    centers = _eval_lattice(f, [_axis_centers(geom, b, d) for d in range(dim)])
    neg = nodes < 0.0
    pos = nodes > 0.0
    all_neg = np.ones(tuple(b.extents()), dtype=bool)
    all_pos = np.ones(tuple(b.extents()), dtype=bool)
    for corner in itertools.product((0, 1), repeat=dim):
        sl = tuple(slice(c, c + e) for c, e in zip(corner, b.extents()))
        all_neg &= neg[sl]
        all_pos &= pos[sl]
    all_neg &= centers < 0.0
    all_pos &= centers > 0.0
    flags = np.full(tuple(b.extents()), CUT, dtype=np.int8)
    flags[all_neg] = REGULAR
    flags[all_pos] = COVERED
    return flags


def compute_moments(f, geom, ba, subsamples=4, dm=None):
    """Subsampled cut-cell moments; s**D interior and s**(D-1) face samples.

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
    sub_off = (np.arange(s) + 0.5) / s - 0.5  # cell-relative subsample offsets
    for g in range(len(ba)):
        b = ba[g]
        ext = tuple(b.extents())
        flags = _classify_box(f, geom, b)

        # interior subsamples: shape (e0*s, e1*s, ...) -> (e0, s, e1, s, ...)
        vals = _eval_lattice(f, [_axis_sub(geom, b, d, s) for d in range(dim)])
        fluid = vals < 0.0
        split = fluid.reshape(tuple(x for e in ext for x in (e, s)))
        sum_axes = tuple(range(1, 2 * dim, 2))
        count = split.sum(axis=sum_axes)
        vol = count / float(s**dim)
        data.volfrac.fab(g).valid(0)[...] = vol

        cent = np.zeros((dim,) + ext)
        denom = np.maximum(count, 1)
        for d in range(dim):
            shape = [1] * (2 * dim)
            shape[2 * d + 1] = s
            w = sub_off.reshape(shape)
            cent[d] = (split * w).sum(axis=sum_axes) / denom
        data.centroid.fab(g).valid()[...] = cent

        # face fractions and centroids per dimension
        alo = np.zeros((dim,) + ext)
        ahi = np.zeros((dim,) + ext)
        fcl = np.zeros((dim * dim,) + ext)
        fch = np.zeros((dim * dim,) + ext)
        for d in range(dim):
            coords = [
                _axis_nodes(geom, b, e) if e == d else _axis_sub(geom, b, e, s)
                for e in range(dim)
            ]
            fvals = _eval_lattice(f, coords) < 0.0
            # collapse transverse subsamples per face
            shape = []
            for e in range(dim):
                if e == d:
                    shape.append(ext[e] + 1)
                else:
                    shape.extend((ext[e], s))
            fsplit = fvals.reshape(tuple(shape))
            t_axes = []
            pos = 0
            for e in range(dim):
                if e == d:
                    pos += 1
                else:
                    t_axes.append(pos + 1)
                    pos += 2
            t_axes = tuple(t_axes)
            fcount = fsplit.sum(axis=t_axes)
            frac = fcount / float(s ** (dim - 1))
            sl_lo = tuple(slice(0, ext[e]) if e == d else slice(None) for e in range(dim))
            sl_hi = tuple(slice(1, ext[e] + 1) if e == d else slice(None) for e in range(dim))
            alo[d] = frac[sl_lo]
            ahi[d] = frac[sl_hi]
            fdenom = np.maximum(fcount, 1)
            for e in range(dim):
                comp = d * dim + e
                if e == d:
                    fcl[comp] = -0.5
                    fch[comp] = 0.5
                    continue
                wshape = [1] * len(shape)
                w_axis = t_axes[[x for x in range(dim) if x != d].index(e)]
                wshape[w_axis] = s
                w = sub_off.reshape(wshape)
                fcent = (fsplit * w).sum(axis=t_axes) / fdenom
                fcl[comp] = fcent[sl_lo]
                fch[comp] = fcent[sl_hi]
        data.area_lo.fab(g).valid()[...] = alo
        data.area_hi.fab(g).valid()[...] = ahi
        data.face_cent_lo.fab(g).valid()[...] = fcl
        data.face_cent_hi.fab(g).valid()[...] = fch

        # boundary area/normal from the face balance
        v = alo - ahi
        vmag = np.sqrt((v**2).sum(axis=0))
        cut = flags == CUT
        degenerate = cut & (vmag == 0.0)
        if degenerate.any():
            for cell in np.argwhere(degenerate):
                vote = REGULAR if vol[tuple(cell)] >= 0.5 else COVERED
                flags[tuple(cell)] = vote
                data.diagnostics.append(
                    (g, tuple(int(c + b.lo[d]) for d, c in enumerate(cell)), vote)
                )
            cut = cut & ~degenerate
        area = np.where(cut, vmag, 0.0)
        normal = np.where(cut & (vmag > 0), v / np.maximum(vmag, 1e-300), 0.0)
        data.eb_area.fab(g).valid(0)[...] = area
        data.eb_normal.fab(g).valid()[...] = normal

        # boundary centroid: midpoints of sign-changing subsample pairs
        csum = np.zeros((dim,) + ext)
        ccount = np.zeros(ext)
        sgn = vals < 0.0
        for d in range(dim):
            full = tuple(x for e in ext for x in (e, s))
            sg = sgn.reshape(full)
            axis = 2 * d + 1
            a = np.take(sg, np.arange(s - 1), axis=axis)
            bb = np.take(sg, np.arange(1, s), axis=axis)
            change = a != bb  # (..., s-1, ...) pairs within one cell
            pair_mid = (sub_off[:-1] + sub_off[1:]) / 2.0
            for e in range(dim):
                shape = [1] * (2 * dim)
                if e == d:
                    shape[axis] = s - 1
                    w = pair_mid.reshape(shape)
                else:
                    shape[2 * e + 1] = s
                    w = sub_off.reshape(shape)
                csum[e] += (change * w).sum(axis=sum_axes)
            ccount += change.sum(axis=sum_axes)
        ebc = csum / np.maximum(ccount, 1)
        data.eb_centroid.fab(g).valid()[...] = np.where(cut, ebc, 0.0)

        data.flags.fab(g).valid(0)[...] = flags
    return data
