"""Ghost exchange and collectives against a dense single-array oracle.

Every op must be bit-identical for any simulated rank count, and remote
traffic must aggregate to one message per communicating rank pair per op.
"""

import numpy as np
import pytest

from amrkit import counters
from amrkit.boxarray import BoxArray
from amrkit.distribution import default_costs, sfc_distribute
from amrkit.fabarray import (
    FabArray,
    build_plan_fill_boundary,
    fill_boundary,
    gather_global,
    parallel_copy,
    plan_cache_clear,
    reduce,
    sum_boundary,
)
from amrkit.index_space import Box, IntVect
from amrkit.transport import Transport, TransportError

from conftest import FaultyTransport, fill_from_global, global_index, random_cover


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
        for (sr, dr) in plan.pairs(fa.dm, fa.dm)
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
