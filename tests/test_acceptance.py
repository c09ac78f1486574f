"""Acceptance suite: one test per shipped guarantee, with a visible
PASS/FAIL line per criterion.

Each test states its tolerance inline and checks against an independent
oracle (exhaustive search, dense arrays, O(N^2) pairing, analytic values).
Criteria that involve timing enforce their own wall-clock budget.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from amrkit import counters
from amrkit.advect import AdvectionSolver
from amrkit.amr_core import (
    AmrHierarchy,
    Geometry,
    GridGenParams,
    cluster_tags,
    nesting_ok,
)
from amrkit.boxarray import BoxArray
from amrkit.cli import _box_adjacency, main as cli_main
from amrkit.distribution import (
    default_costs,
    knapsack_distribute,
    load_stats,
    sfc_distribute,
)
from amrkit.eb import (
    COVERED,
    CUT,
    classify,
    complement,
    compute_moments,
    covered_box_predicate,
    cylinder,
    sphere,
)
from amrkit.fabarray import (
    FabArray,
    build_plan_copy,
    build_plan_fill_boundary,
    build_plan_sum_boundary,
    fill_boundary,
    gather_global,
    parallel_copy,
    sum_boundary,
)
from amrkit.index_space import Box, IntVect
from amrkit.particles import (
    ParticleContainer,
    bin_permutation,
    build_neighbor_list,
    fill_neighbors,
    keyed_uniforms,
    mesh_to_particle,
    partition,
    particle_to_mesh,
    prefix_scan,
    redistribute,
    stream_compact,
)
from amrkit.plotfile import (
    OutputMode,
    PlotfileHeader,
    read_checkpoint,
    read_plotfile,
    write_checkpoint,
    write_plotfile,
)
from amrkit.transport import Transport

from conftest import (
    ACCEPTANCE_REPORT,
    box_hits,
    fill_from_global,
    global_index,
    plan_pairs,
    random_box,
    random_cover,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {num:2d}: FAIL - {desc}"
        ACCEPTANCE_REPORT.append(line)
        print(line)
        raise
    line = f"ACCEPTANCE {num:2d}: PASS - {desc}"
    ACCEPTANCE_REPORT.append(line)
    print(line)


def _wrap(idx, domain, periodic):
    out = []
    for d in range(domain.dim):
        ext = domain.extents()[d]
        c = idx[d] - domain.lo[d]
        if periodic[d]:
            out.append(c % ext)
        elif 0 <= c < ext:
            out.append(c)
        else:
            return None
    return tuple(out)


# -- 1: box algebra ----------------------------------------------------------------


def test_criterion_01_box_algebra(rng):
    with criterion(1, "10^4 randomized box-algebra checks in under 5 s"):
        t0 = time.perf_counter()
        checks = 0
        while checks < 10_000:
            dim = int(rng.integers(2, 4))
            a = random_box(rng, dim)
            b = random_box(rng, dim)
            c = random_box(rng, dim)
            # intersection is commutative and associative
            ab = a.intersect(b)
            assert ab == b.intersect(a)
            assert ab.intersect(c) == a.intersect(b.intersect(c))
            # the intersection is contained in both operands
            if not ab.is_empty():
                assert a.contains_box(ab) and b.contains_box(ab)
            # refine then coarsen is the identity; coarsen then refine covers
            r = IntVect([int(rng.integers(2, 5))] * dim)
            assert a.refine(r).coarsen(r) == a
            assert a.coarsen(r).refine(r).contains_box(a)
            checks += 5
        elapsed = time.perf_counter() - t0
        assert checks >= 10_000
        assert elapsed < 5.0, f"{elapsed:.2f}s for {checks} checks"


# -- 2: hash intersection -----------------------------------------------------------


def test_criterion_02_hash_intersection(rng):
    with criterion(2, "hash lookup == brute force on 200 instances, <= 3^D bins/query"):
        instances = 0
        while instances < 200:
            dim = int(rng.integers(2, 4))
            n = int(rng.integers(12, 28))
            domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
            ba = random_cover(rng, domain, nsplits=int(rng.integers(4, 8)))
            box_hits(ba, ba[0])  # warm the hash before metering
            for _ in range(5):
                q = ba[int(rng.integers(0, len(ba)))].grow(1)
                before = counters.get("hash_bins_examined")
                got = sorted(box_hits(ba, q), key=lambda t: t[0])
                bins = counters.get("hash_bins_examined") - before
                assert bins <= 3**dim
                want = []
                for i in range(len(ba)):
                    ov = ba[i].intersect(q)
                    if not ov.is_empty():
                        want.append((i, ov))
                assert got == want
                instances += 1


# -- 3: clustering -------------------------------------------------------------------


def test_criterion_03_clustering(rng):
    with criterion(
        3, "50 tag sets: coverage, size/divisibility, efficiency >= 0.7, nesting"
    ):
        dim = 2
        n = 64
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (False,) * dim)
        params = GridGenParams(
            dim=dim,
            max_level=1,
            max_grid_size=16,
            blocking_factor=2,
            grid_efficiency=0.7,
            ref_ratio=2,
        )
        ratio = params.ref_ratio[0]
        for _ in range(50):
            tags = set()
            for _ in range(int(rng.integers(1, 4))):
                lo = rng.integers(0, n - 12, size=dim)
                ext = rng.integers(2, 12, size=dim)
                for c in Box(
                    IntVect(int(v) for v in lo),
                    IntVect(int(lo[d] + min(ext[d], n - 1 - lo[d])) for d in range(dim)),
                ).cells():
                    tags.add(IntVect(c))
            clustered = cluster_tags(tags, params, domain)
            # 100% coverage and a 0.7 efficiency floor, box by box
            covered = set()
            for i in range(len(clustered)):
                b = clustered[i]
                inside = [t for t in tags if b.contains(t)]
                assert len(inside) / b.num_cells() >= params.grid_efficiency - 1e-12
                covered.update(inside)
            assert covered == tags
            hier = AmrHierarchy(geom, params, 1)
            fine = hier.make_new_grids(0, tags)
            for i in range(len(fine)):
                fb = fine[i]
                for d in range(dim):
                    assert fb.extents()[d] <= params.max_grid_size[d]
                    assert fb.lo[d] % params.blocking_factor[d] == 0
                    assert (fb.hi[d] + 1) % params.blocking_factor[d] == 0
            assert nesting_ok(
                fine, hier.ba(0), ratio, domain, params.nesting_buffer
            )
            for t in tags:
                fc = IntVect(t[d] * ratio[d] for d in range(dim))
                assert fine.owner_at(fc) is not None


# -- 4: knapsack ---------------------------------------------------------------------


def test_criterion_04_knapsack(rng):
    with criterion(4, "knapsack [5,4,3,3,2,1]x3 -> max load 6 (optimal); bounds hold"):
        cost = [5, 4, 3, 3, 2, 1]
        dm = knapsack_distribute(cost, 3)
        stats = load_stats(dm, cost)
        assert stats["max_load"] == 6.0
        best = min(
            max(
                sum(c for c, r in zip(cost, assign) if r == rank)
                for rank in range(3)
            )
            for assign in itertools.product(range(3), repeat=len(cost))
        )
        assert best == 6.0  # exhaustive optimum equals what the greedy reached
        for _ in range(100):
            nranks = int(rng.integers(2, 9))
            nbox = int(rng.integers(nranks, 40))
            cost = rng.integers(1, 100, size=nbox).astype(np.float64)
            k = load_stats(knapsack_distribute(cost, nranks), cost)
            boxes = [
                Box(IntVect(i * 4, 0), IntVect(i * 4 + 3, 3)) for i in range(nbox)
            ]
            ba = BoxArray(boxes)
            s = load_stats(sfc_distribute(ba, cost, nranks), cost)
            assert k["efficiency"] >= s["efficiency"] - 1e-12
            ideal = cost.sum() / nranks
            bound = ideal / (ideal + cost.max())
            assert k["efficiency"] >= bound - 1e-12


# -- 5: ghost exchange ---------------------------------------------------------------


def _random_layout(rng, dim, nranks, ngrow=2, ncomp=2, n=None):
    n = n or int(rng.integers(12, 24))
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    ba = random_cover(rng, domain, nsplits=int(rng.integers(4, 8)))
    dm = sfc_distribute(ba, default_costs(ba), nranks)
    return domain, FabArray(ba, dm, ncomp=ncomp, ngrow=ngrow)


def _check_fill_oracle(rng, dim, nranks, periodic):
    domain, fa = _random_layout(rng, dim, nranks)
    g = rng.normal(size=(fa.ncomp,) + tuple(domain.extents()))
    fill_from_global(fa, domain, g)
    sentinel = -7777.0
    for i in range(len(fa.ba)):
        fab = fa.fab(i)
        saved = fab.valid().copy()
        fab.data[...] = sentinel
        fab.valid()[...] = saved
    fill_boundary(fa, Transport(nranks), domain, periodic)
    for i in range(len(fa.ba)):
        fab = fa.fab(i)
        for cell in fab.gbox.cells():
            if fa.ba[i].contains(cell):
                continue
            src = _wrap(tuple(cell), domain, periodic)
            local = tuple(cell[d] - fab.gbox.lo[d] for d in range(dim))
            got = fab.data[(slice(None),) + local]
            if src is None:
                assert np.all(got == sentinel)
            else:
                assert np.array_equal(got, g[(slice(None),) + src])


def _check_copy_oracle(rng, dim, nranks):
    n = 16
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    src_ba = random_cover(rng, domain, nsplits=5)
    dst_ba = random_cover(rng, domain, nsplits=7)
    src = FabArray(src_ba, sfc_distribute(src_ba, default_costs(src_ba), nranks), 2, 1)
    dst = FabArray(dst_ba, sfc_distribute(dst_ba, default_costs(dst_ba), nranks), 2, 1)
    g = rng.normal(size=(2,) + tuple(domain.extents()))
    fill_from_global(src, domain, g)
    parallel_copy(dst, src, Transport(nranks), domain)
    for i in range(len(dst.ba)):
        assert np.array_equal(
            dst.fab(i).valid(), g[(slice(None),) + global_index(domain, dst.ba[i])]
        )


def _check_sum_oracle(rng, dim, nranks):
    periodic = (True,) * dim
    domain, fa = _random_layout(rng, dim, nranks, ngrow=1, ncomp=1, n=12)
    stores = {}
    for i in range(len(fa.ba)):
        vals = rng.normal(size=fa.fab(i).data.shape)
        fa.fab(i).data[...] = vals
        stores[i] = vals.copy()
    want = {
        i: stores[i][(slice(None),) + tuple(slice(1, -1) for _ in range(dim))].copy()
        for i in range(len(fa.ba))
    }
    owner = {}
    for i in range(len(fa.ba)):
        for cell in fa.ba[i].cells():
            owner[tuple(cell)] = i
    for i in range(len(fa.ba)):
        fab = fa.fab(i)
        for cell in fab.gbox.cells():
            if fa.ba[i].contains(cell):
                continue
            src = _wrap(tuple(cell), domain, periodic)
            tgt = tuple(src[d] + domain.lo[d] for d in range(dim))
            j = owner[tgt]
            ld = tuple(tgt[d] - fa.ba[j].lo[d] for d in range(dim))
            ls = tuple(cell[d] - fab.gbox.lo[d] for d in range(dim))
            want[j][(slice(None),) + ld] += stores[i][(slice(None),) + ls]
    sum_boundary(fa, Transport(nranks), domain, periodic)
    for i in range(len(fa.ba)):
        assert np.allclose(fa.fab(i).valid(), want[i], rtol=0, atol=1e-13)


def test_criterion_05_ghost_exchange(rng):
    with criterion(
        5, "fill/copy/sum == dense oracle; bit-identical R in {1,2,4,8}; 1 msg/pair"
    ):
        for dim in (2, 3):
            nranks = int(rng.integers(1, 5))
            periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
            _check_fill_oracle(rng, dim, nranks, periodic)
            _check_copy_oracle(rng, dim, nranks)
            _check_sum_oracle(rng, dim, nranks)

        # bit-identity across rank counts, one op each
        dim = 2
        domain, base = _random_layout(rng, dim, 1, n=20)
        g = rng.normal(size=(base.ncomp,) + tuple(domain.extents()))
        results = []
        for nranks in (1, 2, 4, 8):
            fa = FabArray(
                base.ba,
                sfc_distribute(base.ba, default_costs(base.ba), nranks),
                base.ncomp,
                base.ngrow,
            )
            fill_from_global(fa, domain, g)
            fill_boundary(fa, Transport(nranks), domain, (True, True))
            results.append([fa.fab(i).data.copy() for i in range(len(fa.ba))])
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)

        # one aggregated message per communicating ordered rank pair, per op
        nranks = 4
        domain, fa = _random_layout(rng, dim, nranks, n=24)
        fill_from_global(fa, domain, rng.normal(size=(fa.ncomp,) + tuple(domain.extents())))
        plan = build_plan_fill_boundary(fa.ba, fa.ngrow, domain, (True, True))
        pairs = {(s, d) for s, d in plan_pairs(plan, fa.dm, fa.dm) if s != d}
        counters.reset("transport_messages")
        fill_boundary(fa, Transport(nranks), domain, (True, True))
        assert counters.get("transport_messages") == len(pairs)

        src_ba = random_cover(rng, domain, nsplits=5)
        src = FabArray(
            src_ba, sfc_distribute(src_ba, default_costs(src_ba), nranks), fa.ncomp, 1
        )
        fill_from_global(src, domain, rng.normal(size=(fa.ncomp,) + tuple(domain.extents())))
        plan = build_plan_copy(fa.ba, src_ba, domain, (True, True))
        pairs = {(s, d) for s, d in plan_pairs(plan, src.dm, fa.dm) if s != d}
        counters.reset("transport_messages")
        parallel_copy(fa, src, Transport(nranks), domain, (True, True))
        assert counters.get("transport_messages") == len(pairs)

        plan = build_plan_sum_boundary(fa.ba, fa.ngrow, domain, (True, True))
        pairs = {(s, d) for s, d in plan_pairs(plan, fa.dm, fa.dm) if s != d}
        counters.reset("transport_messages")
        sum_boundary(fa, Transport(nranks), domain, (True, True))
        assert counters.get("transport_messages") == len(pairs)


# -- 6: refluxed advection ------------------------------------------------------------


def _advection_drift(use_reflux):
    dim = 2
    n = 16
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
    params = GridGenParams(dim=dim, max_level=1, max_grid_size=8, blocking_factor=4)
    s = AdvectionSolver(
        geom,
        params,
        velocity=(1.0, 0.5),
        nranks=2,
        cfl=0.4,
        use_reflux=use_reflux,
        regrid_interval=0,
    )
    assert s.hier.finest_level == 1  # genuinely two-level, subcycled
    m0 = s.total_mass()
    for _ in range(100):
        s.step()
    return abs(s.total_mass() - m0) / abs(m0)


def test_criterion_06_conservation():
    with criterion(6, "100-step subcycled advection conserves to 1e-12; no-reflux breaks"):
        assert _advection_drift(True) <= 1e-12
        assert _advection_drift(False) > 1e-12  # sanity inversion


# -- 7: particle soak -----------------------------------------------------------------


def test_criterion_07_particle_soak(rng):
    with criterion(7, "500-step soak: R=4 multiset == R=1, zero lost/duplicate ids"):
        dim = 2
        npart = 800
        pos0 = rng.random((npart, dim))
        ids = np.arange(1, npart + 1, dtype=np.int64)
        outs = {}
        for nranks in (1, 4):
            domain = Box(IntVect.zero(dim), IntVect([31] * dim))
            geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
            ba = BoxArray([domain]).max_size(8)
            dm = sfc_distribute(ba, default_costs(ba), nranks)
            pc = ParticleContainer([geom], [ba], [dm], nreal=0, nint=0)
            pc.add_particles(pos0.copy(), ids=ids.copy())
            redistribute(pc)
            for step in range(500):
                u = keyed_uniforms(17, step, ids, ncomp=dim)
                delta = (2.0 * u - 1.0) * 0.03
                for key in pc.sorted_keys():
                    t = pc.tiles[key]
                    if t.size:
                        t.aos["pos"] = t.aos["pos"] + delta[t.aos["id"] - 1]
                redistribute(pc)
                if step % 100 == 99:
                    got = pc.all_ids()
                    assert pc.total_valid() == npart
                    assert len(got) == npart and len(np.unique(got)) == npart
            assert pc.total_valid() == npart
            assert len(np.unique(pc.all_ids())) == npart
            by_id = pc.id_positions()
            outs[nranks] = np.stack([by_id[i] for i in sorted(by_id)])
        assert np.array_equal(outs[1], outs[4])  # identical (id, pos) multiset


# -- 8: neighbor lists ----------------------------------------------------------------


def test_criterion_08_neighbor_list(rng):
    with criterion(8, "neighbor list == O(N^2) oracle, 2000 particles, 20 trials"):
        dim = 2
        n = 32
        npart = 2000
        for trial in range(20):
            domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
            geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
            ba = BoxArray([domain]).max_size(16)
            dm = sfc_distribute(ba, default_costs(ba), 2)
            pc = ParticleContainer([geom], [ba], [dm], nreal=0, nint=0)
            pc.add_particles(
                rng.random((npart, dim)), ids=np.arange(1, npart + 1, dtype=np.int64)
            )
            redistribute(pc)
            cutoff = 1.0 / n
            halo = fill_neighbors(pc, nghost=1)
            nl = build_neighbor_list(pc, halo, cutoff)
            got = set(map(tuple, nl.id_pairs()))
            pp = np.empty((npart, dim))
            for pid, p in pc.id_positions().items():
                pp[pid - 1] = p
            d = np.abs(pp[:, None, :] - pp[None, :, :])
            d = np.minimum(d, 1.0 - d)  # periodic minimum image
            d2 = (d**2).sum(axis=2)
            iu = np.triu_indices(npart, k=1)
            hit = d2[iu] <= cutoff * cutoff
            want = set(zip((iu[0][hit] + 1).tolist(), (iu[1][hit] + 1).tolist()))
            assert got == want


# -- 9: scan utilities ----------------------------------------------------------------


def test_criterion_09_scans(rng):
    with criterion(9, "scan/binning/compaction == sequential oracles on 10^5 inputs"):
        n = 100_000
        vals = rng.integers(0, 1000, size=n).astype(np.int64)
        out = np.zeros(n, dtype=np.int64)
        total = prefix_scan(
            n, lambda i: vals[i], lambda i, v: out.__setitem__(i, v), kind="exclusive"
        )
        assert total == vals.sum()
        assert np.array_equal(out, np.concatenate([[0], np.cumsum(vals)[:-1]]))
        prefix_scan(
            n, lambda i: vals[i], lambda i, v: out.__setitem__(i, v), kind="inclusive"
        )
        assert np.array_equal(out, np.cumsum(vals))
        # chunk size must not change float results bitwise
        fvals = rng.normal(size=4097)
        outs = []
        for chunk in (64, 1000, 10**6):
            fout = np.zeros_like(fvals)
            prefix_scan(
                len(fvals),
                lambda i: fvals[i],
                lambda i, v: fout.__setitem__(i, v),
                chunk=chunk,
            )
            outs.append(fout.copy())
        assert all(np.array_equal(outs[0], o) for o in outs[1:])

        cells = rng.integers(0, 512, size=n)
        counts, offsets, perm = bin_permutation(cells, 512)
        assert np.array_equal(counts, np.bincount(cells, minlength=512))
        assert np.array_equal(offsets, np.concatenate([[0], np.cumsum(counts)[:-1]]))
        assert np.array_equal(perm, np.argsort(cells, kind="stable"))

        keep = vals % 7 == 0
        nkept, idx = stream_compact(n, lambda i: keep[i])
        want_idx = np.nonzero(keep)[0]
        assert nkept == len(want_idx)
        assert np.array_equal(np.asarray(idx), want_idx)
        nkept, permp = partition(n, lambda i: keep[i])
        permp = np.asarray(permp)
        assert np.array_equal(permp[:nkept], want_idx)
        assert np.array_equal(np.sort(permp), np.arange(n))


# -- 10: particle-mesh ----------------------------------------------------------------


def test_criterion_10_particle_mesh(rng):
    with criterion(10, "deposition conserves to 1e-12, rank-invariant; gather exact"):
        dim = 2
        n = 32
        npart = 2000
        pos = rng.random((npart, dim))
        w = rng.random(npart) + 0.5
        fields = []
        for nranks in (1, 2, 4):
            domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
            geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
            ba = BoxArray([domain]).max_size(8)
            dm = sfc_distribute(ba, default_costs(ba), nranks)
            pc = ParticleContainer([geom], [ba], [dm], nreal=1, nint=0)
            pc.add_particles(
                pos.copy(),
                rdata=w[None, :].copy(),
                ids=np.arange(1, npart + 1, dtype=np.int64),
            )
            redistribute(pc)
            mesh = FabArray(ba, dm, 1, 1)
            particle_to_mesh(pc, mesh, kernel="cic", weight=0)
            g = gather_global(mesh, domain)
            assert abs(g.sum() - w.sum()) <= 1e-12 * w.sum()
            fields.append(g)
        assert np.array_equal(fields[0], fields[1])
        assert np.array_equal(fields[0], fields[2])

        # gather: a linear mesh field is reproduced exactly at interior points
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (False,) * dim)
        ba = BoxArray([domain]).max_size(8)
        dm = sfc_distribute(ba, default_costs(ba), 2)
        pc = ParticleContainer([geom], [ba], [dm], nreal=1, nint=0)
        ipos = 0.25 + 0.5 * rng.random((500, dim))
        pc.add_particles(
            ipos, rdata=np.zeros((1, 500)), ids=np.arange(1, 501, dtype=np.int64)
        )
        redistribute(pc)
        mesh = FabArray(ba, dm, 1, 1)
        for i in range(len(ba)):
            b = ba[i]
            arr = mesh.fab(i).valid(0)
            for c in b.cells():
                x = geom.cell_center(IntVect(c))
                arr[tuple(c[d] - b.lo[d] for d in range(dim))] = (
                    2.0 * x[0] - 3.0 * x[1] + 0.25
                )
        mesh_to_particle(pc, mesh, kernel="cic", out_comp=0)
        for key in pc.sorted_keys():
            t = pc.tiles[key]
            for k in range(t.size):
                x = t.aos["pos"][k]
                want = 2.0 * x[0] - 3.0 * x[1] + 0.25
                assert abs(t.rdata[0, k] - want) <= 1e-12


# -- 11: cut-cell sphere --------------------------------------------------------------


def test_criterion_11_eb_sphere():
    with criterion(
        11, "64^3 sphere: volume within 1% of 4pi/3 r^3, residual <= 2/s, < 30 s"
    ):
        t0 = time.perf_counter()
        dim = 3
        n = 64
        s = 4
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        geom = Geometry(domain, (-1.0,) * dim, (1.0,) * dim, (False,) * dim)
        f = complement(sphere(0.5, (0.0, 0.0, 0.0)))  # fluid inside the ball
        ba = BoxArray([domain]).max_size(16)
        data = compute_moments(f, geom, ba, subsamples=s)
        dx = geom.cell_size
        cellvol = dx[0] * dx[1] * dx[2]
        total = sum(data.volfrac.fab(g).valid(0).sum() for g in range(len(ba)))
        total *= cellvol
        analytic = 4.0 / 3.0 * np.pi * 0.5**3  # 0.52360 to five digits
        assert abs(total - analytic) / analytic < 0.01
        ncut = 0
        for g in range(len(ba)):
            cut = data.flags.fab(g).valid(0) == CUT
            if not cut.any():
                continue
            v = data.area_lo.fab(g).valid() - data.area_hi.fab(g).valid()
            an = data.eb_area.fab(g).valid(0) * data.eb_normal.fab(g).valid()
            assert np.abs(an - v)[:, cut].max() <= 2.0 / s
            ncut += int(cut.sum())
        assert ncut > 1000
        assert time.perf_counter() - t0 < 30.0


# -- 12: pruning ----------------------------------------------------------------------


def test_criterion_12_pruning():
    with criterion(12, "pipe-in-solid prune drops every all-covered box, fields intact"):
        dim = 3
        n = 32
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        geom = Geometry(domain, (-1.0,) * dim, (1.0,) * dim, (False,) * dim)
        f = complement(cylinder(0.25, 2, (0.0, 0.0, 0.0)))  # fluid bore in solid
        ba = BoxArray([domain]).max_size(8)
        pruned = ba.prune(covered_box_predicate(f, geom))
        flags = classify(f, geom, ba)
        keep = [
            g for g in range(len(ba)) if not (flags.fab(g).valid(0) == COVERED).all()
        ]
        assert [pruned[i] for i in range(len(pruned))] == [ba[g] for g in keep]
        assert 0 < len(pruned) < len(ba)
        full = compute_moments(f, geom, ba, subsamples=2)
        part = compute_moments(f, geom, pruned, subsamples=2)
        for j, g in enumerate(keep):
            assert np.array_equal(
                part.volfrac.fab(j).valid(0), full.volfrac.fab(g).valid(0)
            )
            assert np.array_equal(
                part.flags.fab(j).valid(0), full.flags.fab(g).valid(0)
            )
            assert np.array_equal(
                part.eb_area.fab(j).valid(0), full.eb_area.fab(g).valid(0)
            )


# -- 13: persistence ------------------------------------------------------------------


def _mk_solver(nranks=2):
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect([31] * dim))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
    params = GridGenParams(dim=dim, max_level=1, max_grid_size=8, blocking_factor=4)
    return AdvectionSolver(
        geom, params, velocity=(1.0, 0.5), nranks=nranks, cfl=0.4, regrid_interval=4
    )


def _phi(solver):
    return [
        gather_global(solver.hier.field("phi", lev), solver.hier.geom(lev).domain)
        for lev in range(solver.hier.finest_level + 1)
    ]


def test_criterion_13_persistence(rng, tmp_path):
    with criterion(13, "plotfile/checkpoint round trips bitwise; restart twin; async"):
        import hashlib, os

        from amrkit.advect import load_solver_checkpoint, save_solver_checkpoint

        def digest(path):
            h = hashlib.sha256()
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    full = os.path.join(root, name)
                    h.update(os.path.relpath(full, path).encode())
                    h.update(open(full, "rb").read())
            return h.hexdigest()

        dim = 2
        domain = Box(IntVect.zero(dim), IntVect([15] * dim))
        geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
        ba = BoxArray([domain]).max_size(8)
        dm = sfc_distribute(ba, default_costs(ba), 4)
        fa = FabArray(ba, dm, 2, 0)
        for g in range(len(ba)):
            fa.fab(g).valid()[...] = rng.normal(size=(2,) + tuple(ba[g].extents()))
        header = PlotfileHeader(1.5, ["a", "b"], [geom])

        # plotfile round trip is bitwise, rewrite is byte-identical
        p1, p2 = str(tmp_path / "p1"), str(tmp_path / "p2")
        write_plotfile(p1, [fa], header).wait()
        write_plotfile(p2, [fa], header).wait()
        assert digest(p1) == digest(p2)
        got_h, got_m = read_plotfile(p1)
        assert got_h.time == header.time
        for c in range(2):
            assert np.array_equal(
                gather_global(got_m[0], domain, comp=c),
                gather_global(fa, domain, comp=c),
            )

        # async output is byte-identical to synchronous
        pa = str(tmp_path / "pa")
        write_plotfile(pa, [fa], header, OutputMode.asynchronous()).wait()
        assert digest(pa) == digest(p1)

        # checkpoint round trip
        blob = b"\x00solver state\xff"
        c1 = str(tmp_path / "c1")
        write_checkpoint(c1, [fa], header, step=9, user_blob=blob)
        data = read_checkpoint(c1)
        assert data["step"] == 9 and data["blob"] == blob
        assert data["owners"] == [list(fa.dm)]
        for c in range(2):
            assert np.array_equal(
                gather_global(data["meshes"][0], domain, comp=c),
                gather_global(fa, domain, comp=c),
            )

        # restart twin: save at step 10, reload, run to 20, compare bitwise
        ref = _mk_solver()
        for _ in range(20):
            ref.step()
        want = _phi(ref)
        half = _mk_solver()
        for _ in range(10):
            half.step()
        chk = str(tmp_path / "chk")
        save_solver_checkpoint(half, chk)
        twin = load_solver_checkpoint(chk)
        for _ in range(10):
            twin.step()
        got = _phi(twin)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# -- 14: neighbor saturation -----------------------------------------------------------


def test_criterion_14_box_neighbors(tmp_path):
    with criterion(14, "R=16 3D, 4 boxes/rank: interior grids have 26 box neighbors"):
        out = str(tmp_path)
        code = cli_main(
            [
                "pbench", "--seed", "6", "--out", out,
                "pb.ncells=32", "pb.max_grid_size=8", "pb.nparticles=64",
                "pb.nsteps=2", "pb.ranks=16",
            ]
        )
        assert code == 0
        import csv as _csv

        with open(f"{out}/pbench.csv", newline="") as fh:
            rows = list(_csv.reader(fh))
        head, row = rows[0], rows[1]
        assert row[head.index("nranks")] == "16"
        assert int(row[head.index("boxes_per_rank")]) >= 4
        assert float(row[head.index("interior_box_neighbors")]) == 26.0
        # counting convention is documented: 26 excludes the box itself, the
        # saturation value 27 counts it
        doc = _box_adjacency.__doc__ or ""
        assert "26" in doc and "27" in doc
