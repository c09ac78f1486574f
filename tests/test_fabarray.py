"""Ghost exchange and collectives against a dense single-array oracle.

Every op must be bit-identical for any simulated rank count, and remote
traffic must aggregate to one message per communicating rank pair per op.
"""

from collections import namedtuple

import numpy as np
import pytest

from amrkit import counters, fabarray
from amrkit.boxarray import BoxArray
from amrkit.coarse_fine import FluxRegister, face_layout, snapshot_valid
from amrkit.distribution import DistributionMapping, default_costs, sfc_distribute
from amrkit.fabarray import (
    FabArray,
    build_plan_copy,
    build_plan_fill_boundary,
    build_plan_sum_boundary,
    fill_boundary,
    gather_global,
    parallel_copy,
    plan_cache_clear,
    reduce,
    sum_boundary,
)
from amrkit.index_space import Box, IntVect, box_diff
from amrkit.transport import Transport, TransportError

from conftest import FaultyTransport, fill_from_global, global_index, plan_pairs, random_cover


def _global_field(rng, domain, ncomp):
    return rng.normal(size=(ncomp,) + tuple(domain.extents()))


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


def _make(rng, dim, nranks, ngrow=2, ncomp=2, n=None):
    n = n or int(rng.integers(12, 24))
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    ba = random_cover(rng, domain, nsplits=int(rng.integers(4, 9)))
    dm = sfc_distribute(ba, default_costs(ba), nranks)
    fa = FabArray(ba, dm, ncomp=ncomp, ngrow=ngrow)
    return domain, fa


def test_fill_boundary_matches_oracle(rng):
    for dim in (2, 3):
        for trial in range(4):
            nranks = int(rng.integers(1, 5))
            periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
            domain, fa = _make(rng, dim, nranks)
            g = _global_field(rng, domain, fa.ncomp)
            fill_from_global(fa, domain, g)
            sentinel = -7777.0
            for i in range(len(fa.ba)):
                # ghosts start at a sentinel so untouched ones are visible
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
                    local = tuple(
                        cell[d] - fab.gbox.lo[d] for d in range(dim)
                    )
                    got = fab.data[(slice(None),) + local]
                    if src is None:
                        assert np.all(got == sentinel)
                    else:
                        assert np.array_equal(got, g[(slice(None),) + src])


def test_fill_boundary_bit_identical_across_ranks(rng):
    dim = 2
    domain, fa1 = _make(rng, dim, 1, n=20)
    g = _global_field(rng, domain, fa1.ncomp)
    results = []
    for nranks in (1, 2, 4, 8):
        fa = FabArray(fa1.ba, sfc_distribute(fa1.ba, default_costs(fa1.ba), nranks), fa1.ncomp, fa1.ngrow)
        fill_from_global(fa, domain, g)
        fill_boundary(fa, Transport(nranks), domain, (True, True))
        results.append([fa.fab(i).data.copy() for i in range(len(fa.ba))])
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b)


def test_fill_boundary_one_message_per_rank_pair(rng):
    dim = 2
    nranks = 4
    domain, fa = _make(rng, dim, nranks, n=24)
    fill_from_global(fa, domain, _global_field(rng, domain, fa.ncomp))
    plan = build_plan_fill_boundary(fa.ba, fa.ngrow, domain, (True, True))
    expected_pairs = {
        (sr, dr)
        for (sr, dr) in plan_pairs(plan, fa.dm, fa.dm)
        if sr != dr
    }
    counters.reset("transport_messages")
    fill_boundary(fa, Transport(nranks), domain, (True, True))
    assert counters.get("transport_messages") == len(expected_pairs)


def test_parallel_copy_matches_oracle(rng):
    sentinel = -7777.0
    for dim in (2, 3):
        nranks = int(rng.integers(1, 5))
        n = 16
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        src_ba = random_cover(rng, domain, nsplits=5)
        dst_ba = random_cover(rng, domain, nsplits=7)
        src = FabArray(src_ba, sfc_distribute(src_ba, default_costs(src_ba), nranks), 2, 1)
        dst = FabArray(dst_ba, sfc_distribute(dst_ba, default_costs(dst_ba), nranks), 2, 2)
        g = _global_field(rng, domain, 2)
        fill_from_global(src, domain, g)
        periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
        for ngrow in (0, 1):
            dst.setval(sentinel)
            parallel_copy(dst, src, Transport(nranks), domain, periodic, ngrow=ngrow)
            for i in range(len(dst.ba)):
                got = dst.fab(i).valid()
                want = g[(slice(None),) + global_index(domain, dst.ba[i])]
                assert np.array_equal(got, want)
                # ghosts within ngrow hold their (wrapped) source, the rest
                # are untouched
                fab = dst.fab(i)
                target = dst.ba[i].grow(ngrow)
                for cell in fab.gbox.cells():
                    local = tuple(cell[d] - fab.gbox.lo[d] for d in range(dim))
                    got = fab.data[(slice(None),) + local]
                    wrapped = _wrap(cell, domain, periodic) if target.contains(cell) else None
                    if wrapped is None:
                        assert np.all(got == sentinel)
                    else:
                        assert np.array_equal(got, g[(slice(None),) + wrapped])
        with pytest.raises(ValueError, match="ghost width"):
            parallel_copy(dst, src, Transport(nranks), domain, periodic, ngrow=3)


def test_sum_boundary_matches_oracle(rng):
    dim = 2
    nranks = 3
    periodic = (True, True)
    domain, fa = _make(rng, dim, nranks, ngrow=1, ncomp=1, n=12)
    # every stored cell (valid and ghost) gets a value keyed to fab and cell
    stores = {}
    for i in range(len(fa.ba)):
        fab = fa.fab(i)
        vals = rng.normal(size=fab.data.shape)
        fab.data[...] = vals
        stores[i] = vals.copy()
    want = {}
    for i in range(len(fa.ba)):
        want[i] = stores[i][
            (slice(None),)
            + tuple(slice(fa.ngrow, -fa.ngrow) for _ in range(dim))
        ].copy()
    # oracle: fold each ghost into the valid cell it wraps onto
    cell_owner = {}
    for i in range(len(fa.ba)):
        for cell in fa.ba[i].cells():
            cell_owner[tuple(cell)] = i
    for i in range(len(fa.ba)):
        fab = fa.fab(i)
        for cell in fab.gbox.cells():
            if fa.ba[i].contains(cell):
                continue
            src = _wrap(tuple(cell), domain, periodic)
            assert src is not None
            tgt_cell = tuple(src[d] + domain.lo[d] for d in range(dim))
            j = cell_owner[tgt_cell]
            local_dst = tuple(
                tgt_cell[d] - fa.ba[j].lo[d] for d in range(dim)
            )
            local_src = tuple(
                cell[d] - fab.gbox.lo[d] for d in range(dim)
            )
            want[j][(slice(None),) + local_dst] += stores[i][
                (slice(None),) + local_src
            ]
    sum_boundary(fa, Transport(nranks), domain, periodic)
    for i in range(len(fa.ba)):
        assert np.allclose(fa.fab(i).valid(), want[i], rtol=0, atol=1e-14)
        # ghosts are consumed and zeroed so a second fold cannot double count
        fab = fa.fab(i)
        mask = np.ones(fab.data.shape, dtype=bool)
        mask[
            (slice(None),)
            + tuple(slice(fa.ngrow, -fa.ngrow) for _ in range(dim))
        ] = False
        assert np.all(fab.data[mask] == 0.0)


def test_reduce_matches_numpy(rng):
    domain, fa = _make(rng, 2, 4, ncomp=2)
    g = _global_field(rng, domain, 2)
    fill_from_global(fa, domain, g)
    tr = Transport(4)
    assert np.isclose(reduce(fa, "sum", 0, tr), g[0].sum(), rtol=1e-13)
    assert reduce(fa, "min", 1, tr) == g[1].min()
    assert reduce(fa, "max", 1, tr) == g[1].max()


def test_gather_global_round_trip(rng):
    domain, fa = _make(rng, 2, 2, ncomp=1)
    g = _global_field(rng, domain, 1)
    fill_from_global(fa, domain, g)
    got = gather_global(fa, domain, comp=0)
    assert np.array_equal(got, g[0])


def test_plan_reuse_on_same_layout(rng):
    domain, fa = _make(rng, 2, 2)
    fill_from_global(fa, domain, _global_field(rng, domain, fa.ncomp))
    tr = Transport(2)
    plan_cache_clear()
    counters.reset("plans_built")
    fill_boundary(fa, tr, domain, (True, True))
    built_once = counters.get("plans_built")
    fill_boundary(fa, tr, domain, (True, True))
    assert counters.get("plans_built") == built_once


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
def test_fill_boundary_raises_on_bad_delivery(rng, fault):
    # a lost message would leave stale ghosts, a duplicate would go unseen
    nranks = 4
    domain, fa = _make(rng, 2, nranks, n=24)
    fill_from_global(fa, domain, _global_field(rng, domain, fa.ncomp))
    fill_boundary(fa, Transport(nranks), domain, (True, True))
    tr = FaultyTransport(nranks, fault, at=1)
    with pytest.raises(TransportError):
        fill_boundary(fa, tr, domain, (True, True))
    assert tr.sent > 1


def test_stray_message_raises(rng):
    nranks = 2
    domain, fa = _make(rng, 2, nranks, n=16)
    tr = Transport(nranks)
    tr.send(1, 0, "stray", np.zeros(1))
    with pytest.raises(TransportError):
        fill_boundary(fa, tr, domain, (True, True))


# -- compiled plans against the per-record loop ------------------------------


Record = namedtuple("Record", "src_index dst_index src_box dst_box shift")


def plan_records(plan):
    """The plan's rows as records: source and destination box index,
    source and destination region, and shift."""
    return [
        Record(i, j, Box(IntVect(lo), IntVect(hi)), Box(IntVect(lo) + s, IntVect(hi) + s), s)
        for i, j, lo, hi, s in zip(
            plan.src.tolist(), plan.dst.tolist(), plan.lo.tolist(), plan.hi.tolist(), plan.shift.tolist()
        )
    ]


class LoopExecutor:
    """Plan execution as it was before plans were compiled, kept as the
    reference: stage every record's source region with Fab.slice (remote
    ones packed into one buffer per rank pair, tagged with the record ids),
    then apply combine(dst_view, src_values, record) record by record in
    plan order.  src_comp/dst_comp restrict the views to one component."""

    def __init__(self, combine):
        self.combine = combine

    def __call__(self, plan, src_fa, dst_fa, transport, src_comp=None, dst_comp=None):
        def view(fa, i, box, comp):
            out = fa.fab(i).slice(box)
            return out if comp is None else out[comp : comp + 1]

        ncomp = src_fa.ncomp if src_comp is None else 1
        records = plan_records(plan)
        groups = {}
        for rid, rec in enumerate(records):
            key = (src_fa.dm[rec.src_index], dst_fa.dm[rec.dst_index])
            groups.setdefault(key, []).append(rid)
        staged = [None] * len(plan)
        for (sr, dr), rids in sorted(groups.items()):
            recs = [records[rid] for rid in rids]
            parts = [view(src_fa, r.src_index, r.src_box, src_comp) for r in recs]
            if sr == dr:
                for rid, part in zip(rids, parts):
                    staged[rid] = part.copy()
            else:
                transport.send(sr, dr, tuple(rids), np.concatenate([p.ravel() for p in parts]))
        for dr in range(transport.nranks):
            for sr, rids, buf in transport.drain(dr):
                offset = 0
                for rid in rids:
                    box = records[rid].src_box
                    n = box.num_cells() * ncomp
                    shape = (ncomp,) + tuple(box.extents())
                    staged[rid] = buf[offset : offset + n].reshape(shape)
                    offset += n
        for rid, rec in enumerate(records):
            self.combine(view(dst_fa, rec.dst_index, rec.dst_box, dst_comp), staged[rid], rec)


def _assign(dst, src, rec):
    dst[...] = src


def _accumulate(dst, src, rec):
    dst[...] += src


def _random_fabarray(rng, domain, nranks, ncomp, ngrow, nsplits):
    ba = random_cover(rng, domain, nsplits=nsplits)
    dm = DistributionMapping(rng.integers(0, nranks, len(ba)), nranks)
    fa = FabArray(ba, dm, ncomp, ngrow)
    fa.arena[...] = rng.normal(size=fa.arena.size)
    return fa


def _twin(fa):
    out = FabArray(fa.ba, fa.dm, fa.ncomp, fa.ngrow, fa.dtype)
    out.arena[...] = fa.arena
    return out


def _traffic(run):
    before = counters.snapshot()
    run()
    after = counters.snapshot()
    return tuple(after.get(k, 0) - before.get(k, 0) for k in ("transport_messages", "transport_bytes"))


def _zero_ghosts(fa, comp):
    for i in range(len(fa.ba)):
        fab = fa.fab(i)
        for piece in box_diff(fab.gbox, fab.box):
            fab.slice(piece)[(slice(None) if comp is None else comp,)] = 0


@pytest.mark.parametrize("nranks", [1, 2, 4, 8])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_compiled_plans_match_loop_reference(dim, nranks):
    # fill, copy (onto ghosts too) and sum, on whole FabArrays and on one
    # component of one, equal the per-record loop bitwise with the same
    # messages and bytes; the sweep must hit a copy that drops overwritten
    # cells and a sum that adds twice to one cell
    rng = np.random.default_rng(100 * dim + nranks)
    n = {1: 24, 2: 12, 3: 6}[dim]
    seen = {"dropped": 0, "repeated": 0}
    for trial in range(6):
        domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
        periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
        if trial < 2:
            periodic = (True,) * dim
        ncomp = int(rng.integers(1, 4))
        ngrow = int(rng.integers(1, 3)) if trial % 3 else 0
        tr = Transport(nranks)
        new = _random_fabarray(rng, domain, nranks, ncomp, ngrow, int(rng.integers(2, 7)))
        ref = _twin(new)
        comp = int(rng.integers(ncomp)) if ncomp > 1 and trial % 2 else None
        view = new if comp is None else new.component(comp)
        plans = []
        if ngrow:
            plan = build_plan_fill_boundary(new.ba, ngrow, domain, periodic)
            got = _traffic(lambda: fill_boundary(view, tr, domain, periodic))
            want = _traffic(lambda: LoopExecutor(_assign)(plan, ref, ref, tr, comp, comp))
            assert got == want
            assert new.arena.tobytes() == ref.arena.tobytes()
            plan = build_plan_sum_boundary(new.ba, ngrow, domain, periodic)
            got = _traffic(lambda: sum_boundary(view, tr, domain, periodic))
            want = _traffic(lambda: LoopExecutor(_accumulate)(plan, ref, ref, tr, comp, comp))
            _zero_ghosts(ref, comp)
            assert got == want
            assert new.arena.tobytes() == ref.arena.tobytes()
            plans.append(plan)
        # the source may reach past the domain, so a periodic copy can
        # write one destination cell from two images
        src_domain = domain.grow(int(rng.integers(0, 2)))
        src = _random_fabarray(rng, src_domain, nranks, ncomp, int(rng.integers(0, 3)), 4)
        src_view = src if comp is None else src.component(comp)
        g = int(rng.integers(0, ngrow + 1))
        plan = build_plan_copy(new.ba, src.ba, domain, periodic, g)
        got = _traffic(lambda: parallel_copy(view, src_view, tr, domain, periodic, ngrow=g))
        want = _traffic(lambda: LoopExecutor(_assign)(plan, src, ref, tr, comp, comp))
        assert got == want
        assert new.arena.tobytes() == ref.arena.tobytes()
        plans.append(plan)
        assert tr.pending() == 0
        for p in plans:
            for c in p.compiled.values():
                seen["dropped"] += c.take is not None
                seen["repeated"] += not c.unique
    assert seen["dropped"] and seen["repeated"], seen


@pytest.mark.parametrize("nranks", [1, 2, 4, 8])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_compiled_flux_register_matches_loop_reference(dim, nranks):
    # crse_add (dst - scale * src, each face once) and reflux (sign *
    # dt_over_dx[d] per patch, np.add.at in record order) equal the
    # per-record loop bitwise, with the same messages and bytes
    rng = np.random.default_rng(7 + 10 * dim + nranks)
    n = {1: 32, 2: 16, 3: 8}[dim]
    ratio = IntVect((2,) * dim)
    cdomain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
    repeated = 0
    for trial in range(4):
        ncomp = int(rng.integers(1, 4))
        periodic = tuple(bool(rng.integers(0, 2)) for _ in range(dim))
        lo = IntVect([int(rng.integers(0, n // 4)) for _ in range(dim)])
        if trial % 2:
            fine = [Box(lo, IntVect([l + int(rng.integers(1, n // 2)) for l in lo]))]
        else:
            # a coarse cell borders both boxes: between them in 1D, in the
            # concave corner of an L otherwise
            e0 = IntVect([4] + [0] * (dim - 1))
            top = IntVect([3] + [1] * (dim - 1)) if dim > 1 else IntVect([4])
            fine = [Box(lo, lo + 3), Box(lo + e0 + (dim == 1), lo + e0 + top)]
        fine_ba = BoxArray([b.refine(ratio) for b in fine]).max_size(6)
        crse_ba = random_cover(rng, cdomain, nsplits=int(rng.integers(2, 7)))
        fine_dm = DistributionMapping(rng.integers(0, nranks, len(fine_ba)), nranks)
        crse_dm = DistributionMapping(rng.integers(0, nranks, len(crse_ba)), nranks)
        reg = FluxRegister(fine_ba, fine_dm, ratio, ncomp)
        reg.reg.arena[...] = rng.normal(size=reg.reg.arena.size)
        reg_ref = _twin(reg.reg)
        flux = [FabArray(face_layout(crse_ba, d), crse_dm, ncomp) for d in range(dim)]
        for f in flux:
            f.arena[...] = rng.normal(size=f.arena.size)
        tr = Transport(nranks)
        scale = float(rng.uniform(0.2, 2.0))

        def subtract(dst, src, rec):
            dst -= scale * src

        got = _traffic(lambda: reg.crse_add(flux, tr, cdomain, scale))
        want = 0, 0
        for d in range(dim):
            plan = reg._build_crse_add(flux[d].ba, d, cdomain)
            m, b = _traffic(lambda: LoopExecutor(subtract)(plan, flux[d], reg_ref, tr))
            want = want[0] + m, want[1] + b
        assert got == want
        assert reg.reg.arena.tobytes() == reg_ref.arena.tobytes()

        crse = FabArray(crse_ba, crse_dm, ncomp, 1)
        crse.arena[...] = rng.normal(size=crse.arena.size)
        crse_ref = _twin(crse)
        dtdx = [float(x) for x in rng.uniform(0.1, 0.9, dim)]

        def reflux(dst, src, rec):
            d = rec.src_index // 2 % dim
            sign = 1.0 if rec.src_index % 2 else -1.0
            dst += (sign * dtdx[d]) * src

        plan = reg._build_reflux(crse_ba, cdomain, periodic)
        got = _traffic(lambda: reg.reflux(crse, tr, dtdx, cdomain, periodic))
        want = _traffic(lambda: LoopExecutor(reflux)(plan, reg.reg, crse_ref, tr))
        assert got == want
        assert crse.arena.tobytes() == crse_ref.arena.tobytes()
        key = fabarray._plan_key("reflux", (fine_ba, crse_ba), ratio.coords, periodic, cdomain)
        repeated += sum(not c.unique for c in fabarray._plan_cache[key].compiled.values())
    assert repeated


@pytest.mark.parametrize("dim,ncomp,ngrow", [(1, 1, 0), (2, 3, 1), (3, 2, 2)])
def test_fab_data_are_arena_views_at_documented_offsets(rng, dim, ncomp, ngrow):
    domain = Box(IntVect.zero(dim), IntVect([9] * dim))
    fa = _random_fabarray(rng, domain, 2, ncomp, ngrow, 5)
    base = fa.arena.__array_interface__["data"][0]
    item = fa.arena.itemsize
    assert fa.arena.ndim == 1 and fa.arena.flags.c_contiguous
    at = 0
    for i in range(len(fa.ba)):
        f = fa.fab(i)
        assert f.data.shape == (ncomp,) + tuple(fa.ba[i].grow(ngrow).extents())
        assert f.data.flags.c_contiguous and np.shares_memory(f.data, fa.arena)
        assert fa.offsets[i] == at and fa.cells[i] == fa.ba[i].grow(ngrow).num_cells()
        assert f.data.__array_interface__["data"][0] == base + item * at
        at += ncomp * int(fa.cells[i])
        for c in range(ncomp):
            v = fa.component(c).fab(i).data
            assert v.shape == (1,) + f.data.shape[1:] and np.shares_memory(v, fa.arena)
            assert v.__array_interface__["data"][0] == base + item * int(
                fa.offsets[i] + c * fa.cells[i]
            )
    assert at == fa.arena.size
    # valid values in box order are the arena of an ngrow=0 twin
    want = np.concatenate([fa.fab(i).valid().ravel() for i in range(len(fa.ba))])
    assert np.array_equal(fa.valid_values(), want)
    assert np.array_equal(snapshot_valid(fa).arena, want)
    # the ghost index lists each box's box_diff pieces in turn
    marks = FabArray(fa.ba, fa.dm, ncomp, ngrow, np.int64)
    marks.arena[...] = np.arange(marks.arena.size)
    pieces = [
        marks.fab(i).slice(p).ravel()
        for i in range(len(fa.ba))
        for p in box_diff(marks.fab(i).gbox, fa.ba[i])
    ]
    ghosts = np.concatenate(pieces + [np.zeros(0, np.int64)])
    assert np.array_equal(fa._layout_index(True), ghosts)
