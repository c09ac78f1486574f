"""Communication plans built from batch queries against the scalar builders.

The reference builders below are the per-box, per-piece and per-shift
loops that made plans before plans were columns: one query per box, piece
and shift, answered here by brute force with each query's boxes in
ascending index, and one (src, dst, src lo, src hi, shift) record per
overlap.  Sorted plans sort the records by destination box, destination lo
corner, source box and shift; the reflux plan keeps generation order.
"""

import numpy as np

from amrkit import fabarray
from amrkit.boxarray import BoxArray
from amrkit.coarse_fine import FluxRegister, face_layout
from amrkit.distribution import DistributionMapping
from amrkit.fabarray import (
    FabArray,
    _periodic_shifts,
    build_plan_copy,
    build_plan_fill_boundary,
    build_plan_sum_boundary,
    fill_boundary,
    parallel_copy,
    sum_boundary,
)
from amrkit.index_space import Box, IndexType, IntVect, box_diff
from amrkit.transport import Transport

from conftest import random_cover


def brute(ba, q):
    """(index, overlap) of every member of ba meeting q, ascending index."""
    out = []
    for i, b in enumerate(ba):
        ov = b.intersect(q)
        if not ov.is_empty():
            out.append((i, ov))
    return out


def record(src, dst, box, shift):
    return (src, dst, tuple(box.lo), tuple(box.hi), tuple(shift))


def ordered(records):
    return sorted(
        records, key=lambda r: (r[1], tuple(a + s for a, s in zip(r[2], r[4])), r[0], r[4])
    )


def rows(plan):
    return list(
        zip(
            plan.src.tolist(),
            plan.dst.tolist(),
            map(tuple, plan.lo.tolist()),
            map(tuple, plan.hi.tolist()),
            map(tuple, plan.shift.tolist()),
        )
    )


def shifts_of(domain, periodic, dim):
    return [IntVect(s) for s in _periodic_shifts(domain, periodic, dim)]


def ref_fill(ba, ngrow, domain, periodic):
    shifts = shifts_of(domain, periodic, ba.dim)
    out = []
    for j in range(len(ba)):
        valid = ba[j]
        for piece in box_diff(valid.grow(ngrow), valid):
            for s in shifts:
                for i, ov in brute(ba, piece.shift(-s)):
                    if i == j and s == IntVect.zero(ba.dim):
                        continue
                    out.append(record(i, j, ov, s))
    return ordered(out)


def ref_copy(dst_ba, src_ba, domain, periodic, ngrow):
    if domain is None:
        shifts = [IntVect.zero(dst_ba.dim)]
    else:
        shifts = shifts_of(domain, periodic, dst_ba.dim)
    out = []
    for j in range(len(dst_ba)):
        target = dst_ba[j].grow(ngrow)
        for s in shifts:
            for i, ov in brute(src_ba, target.shift(-s)):
                out.append(record(i, j, ov, s))
    return ordered(out)


def ref_sum(ba, ngrow, domain, periodic):
    out = []
    for i, j, lo, hi, s in ref_fill(ba, ngrow, domain, periodic):
        box = Box(IntVect(lo), IntVect(hi)).shift(s)
        out.append(record(j, i, box, tuple(-x for x in s)))
    return ordered(out)


def ref_crse_add(reg, flux_ba, d, domain):
    dim = reg.dim
    face = IndexType.face(dim, d)
    out = []
    for k in range(len(reg.cba)):
        for side in (0, 1):
            p = (k * dim + d) * 2 + side
            slab = reg.reg.ba[p]
            off = IntVect(1 if (kk == d and side == 0) else 0 for kk in range(dim))
            plane = Box(slab.lo + off, slab.hi + off, face)
            for ci, ov in brute(flux_ba, plane):
                top = flux_ba[ci].hi[d]
                if ov.lo[d] == top and top != domain.hi[d] + 1:
                    continue
                out.append(record(ci, p, ov, -off))
    return ordered(out)


def ref_reflux(reg, crse_ba, domain, periodic):
    dim = reg.dim
    ext = domain.extents()
    out = []
    for p, adj in enumerate(reg.reg.ba):
        d = p // 2 % dim
        shift = IntVect.zero(dim)
        if adj.lo[d] < domain.lo[d]:
            if not periodic[d]:
                continue
            shift = IntVect(ext[kk] if kk == d else 0 for kk in range(dim))
        elif adj.hi[d] > domain.hi[d]:
            if not periodic[d]:
                continue
            shift = IntVect(-ext[kk] if kk == d else 0 for kk in range(dim))
        for ci, ov in brute(crse_ba, adj.shift(shift)):
            pieces = [ov]
            for _, cov in brute(reg.cba, ov):
                pieces = [q for piece in pieces for q in box_diff(piece, cov)]
            for piece in pieces:
                out.append((p, ci, tuple(piece.lo - shift), tuple(piece.hi - shift), tuple(shift)))
    return out


def fine_region(rng, cdomain, block):
    """Disjoint block-aligned coarse boxes: a random box plus what two more
    add to it, so the union is often L-shaped; some touch the domain edge."""
    dim = cdomain.dim
    nb = cdomain.extents()[0] // block
    boxes = []
    for _ in range(int(rng.integers(1, 4))):
        lo = [int(rng.integers(0, nb - 1)) for _ in range(dim)]
        hi = [min(l + int(rng.integers(0, max(nb // 2, 1))), nb - 1) for l in lo]
        if rng.integers(0, 3) == 0:
            d = int(rng.integers(dim))
            width = hi[d] - lo[d]
            lo[d] = 0 if rng.integers(0, 2) else nb - 1 - width
            hi[d] = lo[d] + width
        pieces = [Box(IntVect(lo), IntVect(hi)).refine(block)]
        for b in boxes:
            pieces = [q for piece in pieces for q in box_diff(piece, b)]
        boxes.extend(pieces)
    return boxes


def test_plans_match_scalar_reference():
    rng = np.random.default_rng(1414)
    seen = {"periodic": 0, "wrapped": 0, "repeat": 0, "l_shape": 0}
    for trial in range(36):
        dim = trial % 3 + 1
        n = {1: 24, 2: 16, 3: 8}[dim]
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
        seen["periodic"] += any(periodic)
        ba = random_cover(rng, domain, nsplits=int(rng.integers(1, 8)))
        if trial % 4 == 3:
            ba = ba.prune(lambda b: rng.integers(0, 3) == 0)
        for ngrow in (0, 1, 2):
            fill = build_plan_fill_boundary(ba, ngrow, domain, periodic)
            assert rows(fill) == ref_fill(ba, ngrow, domain, periodic)
            plan = build_plan_sum_boundary(ba, ngrow, domain, periodic)
            assert rows(plan) == ref_sum(ba, ngrow, domain, periodic)
        # a source reaching past the domain, with and without wrap
        src = random_cover(rng, domain.grow(int(rng.integers(0, 2))), nsplits=4)
        for ngrow in (0, 1, 2):
            plan = build_plan_copy(ba, src, domain, periodic, ngrow)
            assert rows(plan) == ref_copy(ba, src, domain, periodic, ngrow)
            plan = build_plan_copy(ba, src, None, None, ngrow)
            assert rows(plan) == ref_copy(ba, src, None, None, ngrow)

        # flux register on a block-aligned, often L-shaped fine region
        ratio = IntVect((2 if trial % 2 else 4,) * dim)
        block = 2
        cboxes = fine_region(rng, domain, block)
        seen["l_shape"] += len(cboxes) > 1
        fine_ba = BoxArray([b.refine(ratio) for b in cboxes]).max_size(3 * ratio[0])
        fine_dm = DistributionMapping([0] * len(fine_ba), 1)
        reg = FluxRegister(fine_ba, fine_dm, ratio)
        for d in range(dim):
            flux_ba = face_layout(ba, d)
            plan = reg._build_crse_add(flux_ba, d, domain)
            assert rows(plan) == ref_crse_add(reg, flux_ba, d, domain)
        plan = reg._build_reflux(ba, domain, periodic)
        want = ref_reflux(reg, ba, domain, periodic)
        assert rows(plan) == want
        seen["wrapped"] += any(any(r[4]) for r in want)
        cells = [c for r in want for c in Box(IntVect(r[2]), IntVect(r[3])).shift(r[4]).cells()]
        seen["repeat"] += len(cells) > len(set(cells))
    assert all(seen.values()), seen


def test_plan_building_makes_no_boxes(monkeypatch):
    # a fresh fine layout: every plan it takes part in is built, compiled
    # and run without constructing a Box
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect(31, 31))
    fdomain = domain.refine(2)
    periodic = (True, False)
    crse_ba = BoxArray([domain]).max_size(8)
    crse_dm = DistributionMapping([i % 2 for i in range(len(crse_ba))], 2)
    crse = FabArray(crse_ba, crse_dm, 1, 2)
    tr = Transport(2)
    real = Box.__init__
    made = []

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Box, "__init__", counting_init)
    corners = np.array([[[8, 8], [23, 15]], [[8, 16], [15, 23]]])
    fine_ba = BoxArray(corners).refine(2).max_size(8)
    fine_dm = DistributionMapping([i % 2 for i in range(len(fine_ba))], 2)
    fine = FabArray(fine_ba, fine_dm, 1, 2)
    fill_boundary(fine, tr, fdomain, periodic)
    sum_boundary(fine, tr, fdomain, periodic)
    stage = FabArray(fine_ba.coarsen(2), fine_dm, 1, 2)
    parallel_copy(stage, crse, tr, domain, periodic, ngrow=2)
    parallel_copy(fine, fine, tr, fdomain, periodic, ngrow=2)
    reg = FluxRegister(fine_ba, fine_dm, 2)
    flux = [FabArray(face_layout(crse_ba, d), crse_dm) for d in range(dim)]
    reg.crse_add(flux, tr, domain)
    reg.reflux(crse, tr, 0.5, domain, periodic)
    assert len(made) == 0
    monkeypatch.setattr(Box, "__init__", real)
    assert tr.pending() == 0
    assert len(fabarray._plan_cache) >= 6
