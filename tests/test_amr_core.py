"""Grid generation: clustering quality, proper nesting, regrid data refill."""

import numpy as np
import pytest

from amrkit.amr_core import (
    AmrHierarchy,
    BoundaryRecord,
    Geometry,
    GridGenParams,
    apply_domain_boundary,
    cluster_tags,
    enforce_proper_nesting,
    nesting_ok,
)
from amrkit.boxarray import BoxArray
from amrkit.fabarray import FabArray
from amrkit.index_space import Box, IntVect
from amrkit.transport import Transport


def _params(dim, **kw):
    defaults = dict(dim=dim, max_level=1, max_grid_size=16, blocking_factor=4)
    defaults.update(kw)
    return GridGenParams(**defaults)


def _random_tags(rng, domain, nclusters, spread):
    tags = set()
    for _ in range(nclusters):
        c = [int(rng.integers(domain.lo[d], domain.hi[d] + 1)) for d in range(domain.dim)]
        for _ in range(int(rng.integers(3, 12))):
            p = [
                min(max(c[d] + int(rng.integers(-spread, spread + 1)), domain.lo[d]), domain.hi[d])
                for d in range(domain.dim)
            ]
            tags.add(IntVect(p))
    return list(tags)


def test_geometry_mapping():
    geom = Geometry(Box(IntVect(0, 0), IntVect(7, 7)), (0.0, 0.0), (1.0, 2.0), True)
    assert geom.cell_size == (0.125, 0.25)
    assert geom.cell_center(IntVect(0, 0)) == (0.0625, 0.125)
    fine = geom.refine(IntVect(2, 2))
    assert fine.cell_size == (0.0625, 0.125)
    assert fine.prob_hi == geom.prob_hi


def test_params_validation():
    with pytest.raises(ValueError):
        GridGenParams(dim=2, max_grid_size=10, blocking_factor=4)
    with pytest.raises(ValueError):
        GridGenParams(dim=2, grid_efficiency=0.0)
    p = GridGenParams(dim=2, max_level=2, ref_ratio=2)
    assert len(p.ref_ratio) == 2


def test_clustering_properties(rng):
    # output boxes live at the tag level on the blocking_factor/ratio
    # lattice, so refining by the ratio lands on the blocking_factor grid
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect(63, 63))
    params = _params(dim, grid_efficiency=0.7)
    ratio = params.ref_ratio[0]
    align = tuple(params.blocking_factor[d] // ratio[d] for d in range(dim))
    for trial in range(50):
        tags = _random_tags(rng, domain, nclusters=int(rng.integers(1, 4)), spread=4)
        ba = cluster_tags(tags, params, domain)
        tagset = set(tuple(t) for t in tags)
        covered = set()
        for b in ba:
            fine = b.refine(ratio)
            for d in range(dim):
                assert fine.extents()[d] <= params.max_grid_size[d]
                assert fine.extents()[d] % params.blocking_factor[d] == 0
                assert (b.lo[d] - domain.lo[d]) % align[d] == 0
            assert domain.contains_box(b)
            inside = [c for c in tagset if b.contains(IntVect(c))]
            covered.update(inside)
            # no box exists without a reason
            assert inside
        assert covered == tagset


def test_cluster_efficiency_floor(rng):
    # with an alignment lattice of 1 and blocky tag sets, every accepted box
    # meets the configured efficiency target
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect(63, 63))
    params = _params(dim, grid_efficiency=0.7, blocking_factor=2, max_grid_size=32)
    for trial in range(20):
        tags = set()
        for _ in range(int(rng.integers(1, 3))):
            lo = [int(rng.integers(0, 50)) for _ in range(dim)]
            ext = [int(rng.integers(3, 11)) for _ in range(dim)]
            for c in Box(IntVect(lo), IntVect([l + e - 1 for l, e in zip(lo, ext)])).cells():
                tags.add(IntVect(c))
        tags = list(tags)
        ba = cluster_tags(tags, params, domain)
        tagset = set(tuple(t) for t in tags)
        for b in ba:
            inside = sum(1 for c in tagset if b.contains(IntVect(c)))
            assert inside / b.num_cells() >= params.grid_efficiency - 1e-12


def test_proper_nesting_enforcement(rng):
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect(31, 31))
    coarse = BoxArray([Box(IntVect(0, 0), IntVect(15, 31)), Box(IntVect(16, 0), IntVect(31, 31))])
    # a fine box hugging x=washes over the coarse seam is fine; one leaking
    # past the coarse union must be clipped
    fine = BoxArray([Box(IntVect(20, 8), IntVect(35, 15))]).refine(2)
    fixed = enforce_proper_nesting(fine, coarse, IntVect(2, 2), domain.refine(2), buffer=1)
    assert nesting_ok(fixed, coarse, IntVect(2, 2), domain.refine(2), buffer=1)


def test_hierarchy_regrid_covers_tags(rng):
    dim = 2
    geom = Geometry(Box(IntVect.zero(dim), IntVect(31, 31)), (0.0,) * dim, (1.0,) * dim, True)
    params = _params(dim, max_grid_size=16, blocking_factor=4)
    hier = AmrHierarchy(geom, params, nranks=2)
    hier.define_field("phi", ncomp=1, ngrow=1)

    def tag_center(lev, h):
        return [IntVect(15, 15), IntVect(16, 16), IntVect(15, 16)]

    hier.regrid(0, tag_center, Transport(2))
    assert hier.finest_level == 1
    fine_ba = hier.ba(1)
    for t in (IntVect(15, 15), IntVect(16, 16)):
        ft = IntVect([t[d] * 2 for d in range(dim)])
        assert any(b.contains(ft) for b in fine_ba)
    assert nesting_ok(fine_ba, hier.ba(0), params.ref_ratio[0], hier.geom(1).domain, params.nesting_buffer)


def test_regrid_preserves_field_data(rng):
    # after a regrid that moves the fine level, old fine data survives where
    # layouts overlap and new cells take interpolated coarse data
    dim = 2
    geom = Geometry(Box(IntVect.zero(dim), IntVect(31, 31)), (0.0,) * dim, (1.0,) * dim, True)
    params = _params(dim, max_grid_size=16, blocking_factor=4)
    hier = AmrHierarchy(geom, params, nranks=1)
    hier.define_field("phi", ncomp=1, ngrow=1)
    tags1 = [IntVect(8, 8), IntVect(9, 9)]
    hier.regrid(0, lambda lev, h: tags1, Transport(1))
    # paint coarse with a linear function, fine with its interpolant
    for lev in range(hier.finest_level + 1):
        fa = hier.field("phi", lev)
        geom_l = hier.geom(lev)
        for i in range(len(fa.ba)):
            b = fa.ba[i]
            for c in b.cells():
                x = geom_l.cell_center(IntVect(c))
                fa.fab(i).valid(0)[tuple(c[d] - b.lo[d] for d in range(dim))] = (
                    2.0 * x[0] + 3.0 * x[1]
                )
    old_fine_ba = hier.ba(1)
    tags2 = [IntVect(8, 8), IntVect(12, 12)]
    hier.regrid(0, lambda lev, h: tags2, Transport(1))
    fa = hier.field("phi", 1)
    geom_f = hier.geom(1)
    geom_c = hier.geom(0)
    ratio = params.ref_ratio[0]
    for i in range(len(fa.ba)):
        b = fa.ba[i]
        for c in b.cells():
            got = fa.fab(i).valid(0)[tuple(c[d] - b.lo[d] for d in range(dim))]
            if any(ob.contains(c) for ob in old_fine_ba):
                # old same-level data wins where the layouts overlap
                x = geom_f.cell_center(IntVect(c))
                assert abs(got - (2.0 * x[0] + 3.0 * x[1])) < 1e-12
            else:
                # fresh cells take the piecewise-constant coarse parent value
                parent = IntVect([c[d] // ratio[d] for d in range(dim)])
                xp = geom_c.cell_center(parent)
                assert abs(got - (2.0 * xp[0] + 3.0 * xp[1])) < 1e-12


def test_domain_boundary_fill():
    from amrkit.distribution import DistributionMapping

    geom = Geometry(Box(IntVect(0, 0), IntVect(7, 7)), (0.0, 0.0), (1.0, 1.0), False)
    ba = BoxArray([geom.domain])
    fa = FabArray(ba, DistributionMapping.single_rank(1), 1, 1)
    fa.fab(0).data[...] = np.nan
    fa.fab(0).valid()[...] = 5.0
    rec = BoundaryRecord(("external", "extrap"), ("external", "extrap"), external_value=-1.0)
    apply_domain_boundary(fa, geom, rec)
    data = fa.fab(0).data[0]
    assert np.all(data[0, :] == -1.0) and np.all(data[-1, :] == -1.0)
    assert np.all(data[1:-1, 0] == 5.0) and np.all(data[1:-1, -1] == 5.0)


def test_boundary_record_must_match_geometry():
    geom = Geometry(Box(IntVect(0, 0), IntVect(7, 7)), (0.0, 0.0), (1.0, 1.0), True)
    with pytest.raises(ValueError):
        BoundaryRecord.all_extrap(2).check_against(geom)


def _buffer_tags_reference(hier, tags, lev, radius):
    # the per-candidate loop that AmrHierarchy._buffer_tags replaced
    if radius <= 0:
        return set(tags)
    dom = hier.geom(lev).domain
    per = hier.geom(lev).periodic
    ext = dom.extents()
    out = set()
    offsets = list(np.ndindex(*(2 * radius + 1,) * hier.dim))
    for t in tags:
        for off in offsets:
            c = [t[d] + off[d] - radius for d in range(hier.dim)]
            ok = True
            for d in range(hier.dim):
                if per[d]:
                    c[d] = dom.lo[d] + (c[d] - dom.lo[d]) % ext[d]
                elif not dom.lo[d] <= c[d] <= dom.hi[d]:
                    ok = False
                    break
            if ok:
                out.add(IntVect(c))
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_buffer_tags_matches_reference_loop(rng, dim):
    n = 16 if dim == 2 else 8
    for periodic in [(False,) * dim, (True,) * dim, (True,) + (False,) * (dim - 1)]:
        domain = Box(IntVect([2] * dim), IntVect([2 + n - 1] * dim))
        geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, periodic)
        hier = AmrHierarchy(geom, _params(dim, max_grid_size=n, blocking_factor=4))
        for radius in range(4):
            for nclusters, spread in ((1, 1), (3, 3), (6, n)):
                tags = set(_random_tags(rng, domain, nclusters, spread))
                got = hier._buffer_tags(tags, 0, radius)
                assert got == _buffer_tags_reference(hier, tags, 0, radius)
                assert all(isinstance(t, IntVect) for t in got)
        assert hier._buffer_tags(set(), 0, 2) == set()


def test_cluster_tags_rejects_tags_outside_the_domain():
    domain = Box(IntVect(0, 0), IntVect(15, 15))
    params = _params(2)
    with pytest.raises(ValueError, match=r"tag \(16, 3\) outside"):
        cluster_tags([IntVect(2, 2), IntVect(16, 3)], params, domain)
    with pytest.raises(ValueError, match=r"tag \(-1, 0\) outside"):
        cluster_tags([IntVect(-1, 0)], params, domain)
