"""Coarse/fine coupling: interpolation accuracy, restriction, fill_patch
composition, and conservation under refluxing."""

import gc

import numpy as np
import pytest

from amrkit import coarse_fine, counters, fabarray
from amrkit.advect import AdvectionSolver, solver_from_config
from amrkit.amr_core import Geometry, GridGenParams
from amrkit.boxarray import BoxArray
from amrkit.coarse_fine import (
    FluxRegister,
    average_down,
    coarsened_layout,
    face_layout,
    fill_patch,
    interp_to_fine,
    snapshot_valid,
)
from amrkit.config import Config
from amrkit.distribution import DistributionMapping, default_costs, sfc_distribute
from amrkit.fabarray import FabArray, fill_boundary, gather_global
from amrkit.index_space import Box, IndexType, IntVect, box_diff
from amrkit.transport import Transport, TransportError

from conftest import FaultyTransport, box_hits, fill_from_global, random_cover


def _single(ba, ncomp=1, ngrow=0, nranks=1):
    dm = sfc_distribute(ba, default_costs(ba), nranks)
    return FabArray(ba, dm, ncomp, ngrow)


def _paint_linear(fa, geom, coeffs):
    for i in range(len(fa.ba)):
        b = fa.ba[i]
        arr = fa.fab(i).valid(0)
        for c in b.cells():
            x = geom.cell_center(IntVect(c))
            arr[tuple(c[d] - b.lo[d] for d in range(b.dim))] = sum(
                k * xi for k, xi in zip(coeffs, x)
            )


def test_average_down_is_exact_mean():
    crse_dom = Box(IntVect(0, 0), IntVect(7, 7))
    fine_ba = BoxArray([Box(IntVect(4, 4), IntVect(11, 11))])
    crse = _single(BoxArray([crse_dom]))
    fine = _single(fine_ba)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(1, 8, 8))
    fine.fab(0).valid()[...] = vals
    crse.fab(0).valid()[...] = -3.0
    average_down(fine, crse, IntVect(2, 2), Transport(1))
    got = crse.fab(0).valid(0)
    for ci in range(2, 6):
        for cj in range(2, 6):
            want = vals[0, 2 * (ci - 2) : 2 * (ci - 2) + 2, 2 * (cj - 2) : 2 * (cj - 2) + 2].mean()
            assert abs(got[ci, cj] - want) < 1e-14
    # cells not under the fine level are untouched
    assert got[0, 0] == -3.0


def test_interp_linear_reproduces_linear_fields():
    # minmod-limited linear interpolation is exact for globally linear data
    dom_c = Box(IntVect(0, 0), IntVect(15, 15))
    geom_c = Geometry(dom_c, (0.0, 0.0), (1.0, 1.0), False)
    crse = _single(BoxArray([dom_c]), ngrow=1)
    _paint_linear(crse, geom_c, (2.0, -1.5))
    fine_region = Box(IntVect(8, 8), IntVect(23, 23))
    geom_f = geom_c.refine(IntVect(2, 2))
    fine = _single(BoxArray([fine_region]))
    interp_to_fine(fine, crse, IntVect(2, 2), Transport(1), method="linear")
    out = fine.fab(0).valid()
    for c in fine_region.cells():
        x = geom_f.cell_center(IntVect(c))
        got = out[0, c[0] - fine_region.lo[0], c[1] - fine_region.lo[1]]
        assert abs(got - (2.0 * x[0] - 1.5 * x[1])) < 1e-12


def test_interp_pc_matches_parent():
    dom_c = Box(IntVect(0, 0), IntVect(7, 7))
    crse = _single(BoxArray([dom_c]), ngrow=1)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(1, 8, 8))
    crse.fab(0).valid()[...] = vals
    fine_region = Box(IntVect(4, 4), IntVect(11, 11))
    fine = _single(BoxArray([fine_region]))
    interp_to_fine(fine, crse, IntVect(2, 2), Transport(1), method="pc")
    out = fine.fab(0).valid()
    for c in fine_region.cells():
        got = out[0, c[0] - fine_region.lo[0], c[1] - fine_region.lo[1]]
        assert got == vals[0, c[0] // 2, c[1] // 2]


def test_interp_then_restrict_is_identity():
    # average_down(interp(crse)) == crse on the covered region, both kinds
    dom_c = Box(IntVect(0, 0), IntVect(7, 7))
    geom_c = Geometry(dom_c, (0.0, 0.0), (1.0, 1.0), False)
    for kind in ("pc", "linear"):
        crse = _single(BoxArray([dom_c]), ngrow=1)
        rng = np.random.default_rng(7)
        crse.fab(0).valid()[...] = rng.normal(size=(1, 8, 8))
        before = crse.fab(0).valid().copy()
        fine = _single(BoxArray([Box(IntVect(4, 4), IntVect(11, 11))]))
        interp_to_fine(fine, crse, IntVect(2, 2), Transport(1), method=kind)
        average_down(fine, crse, IntVect(2, 2), Transport(1))
        assert np.allclose(crse.fab(0).valid(), before, rtol=0, atol=1e-14)


def test_fill_patch_prefers_fine_data():
    # where same-level data exists it is used; only uncovered ghost cells
    # fall back to the interpolated coarse field
    dom_c = Box(IntVect(0, 0), IntVect(15, 15))
    geom_c = Geometry(dom_c, (0.0, 0.0), (1.0, 1.0), True)
    geom_f = geom_c.refine(IntVect(2, 2))
    crse = _single(BoxArray([dom_c]), ngrow=1)
    _paint_linear(crse, geom_c, (1.0, 1.0))
    fine_ba = BoxArray(
        [Box(IntVect(8, 8), IntVect(15, 15)), Box(IntVect(16, 8), IntVect(23, 15))]
    )
    fine = _single(fine_ba, ngrow=2)
    _paint_linear(fine, geom_f, (1.0, 1.0))
    crse_old = snapshot_valid(crse)
    fill_patch(
        fine,
        crse_old,
        crse,
        time_weight=1.0,
        ratio=IntVect(2, 2),
        transport=Transport(1),
        domain=geom_f.domain,
        periodic=geom_f.periodic,
        kind="linear",
    )
    fab = fine.fab(0)
    # ghost shared with the sibling grid holds the sibling's exact values
    for c in Box(IntVect(16, 8), IntVect(17, 15)).cells():
        x = geom_f.cell_center(IntVect(c))
        got = fab.data[0, c[0] - fab.gbox.lo[0], c[1] - fab.gbox.lo[1]]
        assert abs(got - (x[0] + x[1])) < 1e-12
    # ghost below the fine union comes from coarse interpolation of the same
    # linear field, which is exact in the interior
    for c in Box(IntVect(8, 6), IntVect(15, 7)).cells():
        x = geom_f.cell_center(IntVect(c))
        got = fab.data[0, c[0] - fab.gbox.lo[0], c[1] - fab.gbox.lo[1]]
        assert abs(got - (x[0] + x[1])) < 1e-12


def test_fill_patch_time_interpolation():
    dom_c = Box(IntVect(0, 0), IntVect(7, 7))
    geom_c = Geometry(dom_c, (0.0, 0.0), (1.0, 1.0), True)
    crse = _single(BoxArray([dom_c]), ngrow=1)
    crse.fab(0).valid()[...] = 4.0
    crse_old = snapshot_valid(crse)
    crse_old.fab(0).valid()[...] = 2.0
    fine = _single(BoxArray([Box(IntVect(4, 4), IntVect(7, 7))]), ngrow=1)
    fine.fab(0).data[...] = 0.0
    fill_patch(
        fine,
        crse_old,
        crse,
        time_weight=0.25,
        ratio=IntVect(2, 2),
        transport=Transport(1),
        domain=geom_c.refine(IntVect(2, 2)).domain,
        periodic=(True, True),
        kind="pc",
    )
    # ghosts outside the fine grid blend old and new coarse states
    fab = fine.fab(0)
    assert abs(fab.data[0, 0, 0] - (0.75 * 2.0 + 0.25 * 4.0)) < 1e-14


def test_coarsened_layout_memoized():
    ba = BoxArray([Box(IntVect(0, 0), IntVect(7, 7))])
    a = coarsened_layout(ba, IntVect(2, 2))
    b = coarsened_layout(ba, IntVect(2, 2))
    assert a is b


def test_flux_register_closes_budget():
    # one coarse step of the advection demo conserves the composite sum
    # exactly because crse_add/fine_add/reflux cancel at the seam
    cfg = Config({"adv.dim": "2", "adv.ncells": "32", "adv.velocity": "0.7 -0.3"})
    solver = solver_from_config(cfg, nranks=2)
    assert solver.hier.finest_level == 1
    m0 = solver.total_mass()
    for _ in range(3):
        solver.step()
    assert abs(solver.total_mass() - m0) <= 1e-13 * max(abs(m0), 1.0)


def test_reflux_off_breaks_conservation():
    cfg = Config({"adv.dim": "2", "adv.ncells": "32", "adv.velocity": "0.7 -0.3"})
    solver = solver_from_config(cfg, nranks=1, use_reflux=False)
    m0 = solver.total_mass()
    for _ in range(10):
        solver.step()
    assert abs(solver.total_mass() - m0) > 1e-10 * max(abs(m0), 1.0)


def test_advection_identical_across_rank_counts():
    cfg = Config({"adv.dim": "2", "adv.ncells": "32", "adv.velocity": "1.0 0.5"})
    results = []
    for nranks in (1, 2, 4):
        solver = solver_from_config(cfg, nranks=nranks)
        for _ in range(5):
            solver.step()
        from amrkit.fabarray import gather_global

        results.append(
            gather_global(solver.hier.field("phi", 0), solver.hier.geom(0).domain)
        )
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


# ---------------------------------------------------------------------------
# flux register against a brute-force reference
# ---------------------------------------------------------------------------


class BruteForceFluxRegister:
    """The per-step flux register: every crse_add intersects every patch
    with every coarse box, and reflux redoes its box algebra, writing
    straight into the coarse fabs.  Patches are face-typed, keyed
    (k, d, side)."""

    def __init__(self, fine_ba, ratio, ncomp=1):
        self.ratio = ratio
        self.ncomp = ncomp
        self.fine_ba = fine_ba
        self.cba = fine_ba.coarsen(ratio)
        self.dim = fine_ba.dim
        self.patches = {}
        for k, fc in enumerate(self.cba):
            for d in range(self.dim):
                for side in ("lo", "hi"):
                    plane = fc.lo[d] if side == "lo" else fc.hi[d] + 1
                    lo = list(fc.lo)
                    hi = list(fc.hi)
                    lo[d] = hi[d] = plane
                    fbox = Box(IntVect(lo), IntVect(hi), IndexType.face(self.dim, d))
                    self.patches[(k, d, side)] = {
                        "face_box": fbox,
                        "data": np.zeros((ncomp,) + tuple(fbox.extents())),
                    }

    @staticmethod
    def _face_slice(region, face_box):
        return (slice(None),) + tuple(
            slice(region.lo[d] - face_box.lo[d], region.hi[d] - face_box.lo[d] + 1)
            for d in range(region.dim)
        )

    def crse_add(self, crse_fluxes, crse_ba, domain, scale=1.0):
        for (k, d, side), p in self.patches.items():
            pf = p["face_box"]
            for ci, flux_list in sorted(crse_fluxes.items()):
                cbox = crse_ba[ci]
                fb_ci = cbox.convert(IndexType.face(self.dim, d))
                owned_hi = list(fb_ci.hi)
                if cbox.hi[d] != domain.hi[d]:
                    owned_hi[d] -= 1
                owned = Box(fb_ci.lo, IntVect(owned_hi), fb_ci.ixtype)
                region = pf.intersect(owned)
                if region.is_empty():
                    continue
                p["data"][self._face_slice(region, pf)] -= scale * flux_list[d][
                    self._face_slice(region, fb_ci)
                ]

    def fine_add(self, k, fine_fluxes, scale=1.0):
        fb = self.fine_ba[k]
        for d in range(self.dim):
            flux = fine_fluxes[d]
            for side in ("lo", "hi"):
                p = self.patches[(k, d, side)]
                local = 0 if side == "lo" else fb.extents()[d]
                plane = flux[(slice(None),) + tuple(
                    local if kk == d else slice(None) for kk in range(self.dim)
                )]
                shape = [self.ncomp]
                axes = []
                for kk in range(self.dim):
                    if kk == d:
                        continue
                    shape.extend([fb.extents()[kk] // self.ratio[kk], self.ratio[kk]])
                    axes.append(len(shape) - 1)
                avg = plane.reshape(shape).mean(axis=tuple(axes)) if axes else plane
                p["data"][...] += scale * avg.reshape(p["data"].shape)

    def reflux(self, crse, dt_over_dx, domain, periodic):
        ext = domain.extents()
        for (k, d, side), p in self.patches.items():
            pf = p["face_box"]
            fc = self.cba[k]
            sign = -1.0 if side == "lo" else 1.0
            cell_lo = list(pf.lo)
            cell_hi = list(pf.hi)
            if side == "lo":
                cell_lo[d] = cell_hi[d] = fc.lo[d] - 1
            else:
                cell_lo[d] = cell_hi[d] = fc.hi[d] + 1
            adj = Box(IntVect(cell_lo), IntVect(cell_hi))
            shift = IntVect.zero(self.dim)
            if adj.lo[d] < domain.lo[d]:
                if not periodic[d]:
                    continue
                shift = IntVect(ext[kk] if kk == d else 0 for kk in range(self.dim))
            elif adj.hi[d] > domain.hi[d]:
                if not periodic[d]:
                    continue
                shift = IntVect(-ext[kk] if kk == d else 0 for kk in range(self.dim))
            for ci, ov in box_hits(crse.ba, adj.shift(shift)):
                pieces = [ov]
                for _, cov in box_hits(self.cba, ov):
                    nxt = []
                    for piece in pieces:
                        nxt.extend(box_diff(piece, cov))
                    pieces = nxt
                for piece in pieces:
                    face_region = piece.shift(-shift)
                    fr_lo = list(face_region.lo)
                    fr_hi = list(face_region.hi)
                    if side == "lo":
                        fr_lo[d] += 1
                        fr_hi[d] += 1
                    face_region = Box(IntVect(fr_lo), IntVect(fr_hi), pf.ixtype)
                    vals = p["data"][self._face_slice(face_region, pf)]
                    crse.fab(ci).slice(piece)[...] += (sign * dt_over_dx[d]) * vals


def _fine_region(rng, cdomain):
    """Disjoint coarse-resolution boxes: a random box plus what two more
    random boxes add to it, so the union is often L-shaped; edges touch
    the domain boundary often enough to exercise periodic wrap."""
    dim = cdomain.dim
    n = cdomain.extents()[0]
    boxes = []
    for _ in range(3):
        lo = [int(rng.integers(0, n - 2)) for _ in range(dim)]
        hi = [min(l + int(rng.integers(1, n // 2)), n - 1) for l in lo]
        if rng.integers(0, 3) == 0:
            # slide the box against the low or high domain edge
            d = int(rng.integers(dim))
            width = hi[d] - lo[d]
            lo[d] = 0 if rng.integers(0, 2) else n - 1 - width
            hi[d] = lo[d] + width
        pieces = [Box(IntVect(lo), IntVect(hi))]
        for b in boxes:
            pieces = [q for piece in pieces for q in box_diff(piece, b)]
        boxes.extend(pieces)
    return boxes


def _register_case(rng, dim, n, fine_boxes, nranks, ncomp):
    ratio = IntVect((2,) * dim)
    cdomain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
    crse_ba = random_cover(rng, cdomain, nsplits=int(rng.integers(2, 7)))
    fine_ba = BoxArray([b.refine(ratio) for b in fine_boxes])
    crse_dm = DistributionMapping(rng.integers(0, nranks, len(crse_ba)), nranks)
    fine_dm = DistributionMapping(rng.integers(0, nranks, len(fine_ba)), nranks)
    periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
    new = FluxRegister(fine_ba, fine_dm, ratio, ncomp)
    ref = BruteForceFluxRegister(fine_ba, ratio, ncomp)
    tr = Transport(nranks)
    new.zero()
    flux = [FabArray(face_layout(crse_ba, d), crse_dm, ncomp) for d in range(dim)]
    for d in range(dim):
        for ci in range(len(crse_ba)):
            flux[d].fab(ci).data[...] = rng.normal(size=flux[d].fab(ci).data.shape)
    new.crse_add(flux, tr, cdomain, scale=0.7)
    ref.crse_add(
        {ci: [flux[d].fab(ci).data for d in range(dim)] for ci in range(len(crse_ba))},
        crse_ba,
        cdomain,
        scale=0.7,
    )
    for _ in range(2):
        for k, fb in enumerate(fine_ba):
            fl = [
                rng.normal(size=(ncomp,) + tuple(
                    fb.extents()[kk] + (kk == d) for kk in range(dim)
                ))
                for d in range(dim)
            ]
            new.fine_add(k, fl, scale=0.5)
            ref.fine_add(k, fl, scale=0.5)
    for (k, d, side), p in ref.patches.items():
        got = new.reg.fab((k * dim + d) * 2 + (side == "hi")).data
        assert got.tobytes() == p["data"].tobytes()
    crse_new = FabArray(crse_ba, crse_dm, ncomp, 1)
    crse_ref = FabArray(crse_ba, crse_dm, ncomp, 1)
    for ci in range(len(crse_ba)):
        vals = rng.normal(size=crse_new.fab(ci).data.shape)
        crse_new.fab(ci).data[...] = vals
        crse_ref.fab(ci).data[...] = vals
    dtdx = [float(x) for x in rng.uniform(0.1, 0.9, dim)]
    new.reflux(crse_new, tr, dtdx, cdomain, periodic)
    ref.reflux(crse_ref, dtdx, cdomain, periodic)
    for ci in range(len(crse_ba)):
        assert crse_new.fab(ci).data.tobytes() == crse_ref.fab(ci).data.tobytes()
    assert tr.pending() == 0
    # how often the plan adds twice to one coarse cell, and wraps around
    key = fabarray._plan_key("reflux", (fine_ba, crse_ba), ratio.coords, periodic, cdomain)
    plan = fabarray._plan_cache[key]
    seen = {}
    for lo, hi in zip((plan.lo + plan.shift).tolist(), (plan.hi + plan.shift).tolist()):
        for c in Box(IntVect(lo), IntVect(hi)).cells():
            seen[c] = seen.get(c, 0) + 1
    repeats = sum(1 for v in seen.values() if v > 1)
    wraps = sum(1 for s in plan.shift.tolist() if any(s))
    return repeats, wraps


def test_flux_register_matches_brute_force():
    # the plan-based register equals the per-step one byte for byte on
    # random layouts, including cells refluxed twice and periodic wrap
    rng = np.random.default_rng(31)
    totals = {2: [0, 0], 3: [0, 0]}
    for dim, n, trials in ((2, 16, 12), (3, 8, 6)):
        cdomain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
        for _ in range(trials):
            repeats, wraps = _register_case(
                rng, dim, n, _fine_region(rng, cdomain),
                nranks=int(rng.integers(1, 5)), ncomp=int(rng.integers(1, 3)),
            )
            totals[dim][0] += repeats
            totals[dim][1] += wraps
    # a concave corner: the cell at (8, 6) borders both fine boxes
    l_shape = [Box(IntVect(4, 4), IntVect(7, 7)), Box(IntVect(8, 4), IntVect(11, 5))]
    repeats, _ = _register_case(rng, 2, 16, l_shape, nranks=3, ncomp=1)
    assert repeats >= 1
    for dim in (2, 3):
        assert totals[dim][0] > 0 and totals[dim][1] > 0, totals


def _levels(solver):
    hier = solver.hier
    out = []
    for lev in range(hier.finest_level + 1):
        fa = hier.field("phi", lev)
        out.append(([(b.lo.coords, b.hi.coords) for b in fa.ba],
                    gather_global(fa, hier.geom(lev).domain)))
    return out


def test_refluxed_advection_with_regrid_rank_invariant_and_routed(monkeypatch):
    # both levels are bitwise equal for R = 1, 2, 4 with a regrid every 4
    # steps; at R = 4 flux-register data moves through the transport, at
    # R = 1 it never does, and no plan is built between regrids
    traffic = {"crse_add": 0, "reflux": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            before = counters.get("transport_messages")
            out = fn(*args, **kwargs)
            traffic[name] += counters.get("transport_messages") - before
            return out
        return wrapped

    monkeypatch.setattr(FluxRegister, "crse_add", counting("crse_add", FluxRegister.crse_add))
    monkeypatch.setattr(FluxRegister, "reflux", counting("reflux", FluxRegister.reflux))
    cfg = Config({"adv.dim": "2", "adv.ncells": "32", "adv.velocity": "0.7 -0.3",
                  "adv.regrid_interval": "4"})
    results = {}
    for nranks in (1, 2, 4):
        solver = solver_from_config(cfg, nranks=nranks)
        for key in traffic:
            traffic[key] = 0
        for step in range(1, 17):
            built = counters.get("plans_built")
            solver.step()
            if step % 4 in (2, 3):
                assert counters.get("plans_built") == built, step
        assert solver.hier.finest_level == 1
        results[nranks] = _levels(solver)
        if nranks == 1:
            assert traffic == {"crse_add": 0, "reflux": 0}
        if nranks == 4:
            assert traffic["crse_add"] > 0 and traffic["reflux"] > 0, traffic
    for nranks in (2, 4):
        for (ba1, g1), (ba, g) in zip(results[1], results[nranks]):
            assert ba1 == ba
            assert g1.tobytes() == g.tobytes()


def test_plan_caches_bounded_over_regrids():
    # plan-cache and layout-memo entries die with the layouts they key on
    cfg = Config({"adv.dim": "2", "adv.ncells": "32", "adv.velocity": "0.7 -0.3"})
    solver = solver_from_config(cfg, nranks=2)
    sizes = {}
    for regrid in range(1, 101):
        solver.regrid()
        solver.step()
        gc.collect()
        if regrid in (10, 100):
            assert solver.hier.finest_level == 1
            sizes[regrid] = (len(fabarray._plan_cache), len(coarse_fine._layout_memo))
    assert sizes[10] == sizes[100]


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
def test_reflux_raises_on_bad_delivery(fault):
    cfg = Config({"adv.dim": "2", "adv.ncells": "32", "adv.velocity": "0.7 -0.3"})
    solver = solver_from_config(cfg, nranks=4)
    solver.step()
    fr = solver.fluxreg
    phi_c = solver.hier.field("phi", 0)
    geom = solver.hier.geom(0)
    tr = FaultyTransport(4, fault, at=0)
    with pytest.raises(TransportError):
        fr.reflux(phi_c, tr, 0.1, geom.domain, geom.periodic)
    assert tr.sent > 0
