"""Particles: ownership, redistribution, halos, neighbor lists, scans, and
particle-mesh transfer, each against an order-independent oracle."""

import gc

import numpy as np
import pytest

from amrkit import counters, kernels
from amrkit.amr_core import Geometry
from amrkit.boxarray import BoxArray
from amrkit.distribution import default_costs, sfc_distribute
from amrkit.fabarray import (
    FabArray,
    _periodic_shifts,
    fill_boundary,
    gather_global,
    parallel_copy,
    sum_boundary,
)
from amrkit.kernels import deposit_cic, gather_cic, neighbor_pairs
from amrkit.index_space import Box, IntVect
from amrkit.particles import (
    ParticleContainer,
    ParticleError,
    ParticleTile,
    bin_permutation,
    build_neighbor_list,
    check_locations,
    fill_neighbors,
    keyed_uniforms,
    locate,
    mesh_to_particle,
    partition,
    particle_to_mesh,
    prefix_scan,
    redistribute,
    stream_compact,
    sum_neighbors,
    tile_box_of,
    update_neighbors,
)
from amrkit.particles import (
    _KERNEL_RADIUS,
    _LayoutCache,
    _Packed,
    _aos_dtype,
    _cells_at,
    _default_local_k,
    _exchange,
    _runs,
    _wrap_positions,
)
from amrkit.transport import Transport, TransportError

from conftest import FaultyTransport, box_hits, random_cover

DIM = 2


def _setup(rng=None, nranks=1, n=32, dim=DIM, mgs=8, nreal=1, nint=0, periodic=True, tile_size=None):
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, periodic)
    ba = BoxArray([domain]).max_size(mgs)
    dm = sfc_distribute(ba, default_costs(ba), nranks)
    return ParticleContainer([geom], [ba], [dm], nreal=nreal, nint=nint, tile_size=tile_size)


def _inject(pc, pos, **kw):
    n = pos.shape[0]
    ids = kw.pop("ids", np.arange(1, n + 1, dtype=np.int64))
    pc.add_particles(pos, ids=ids, **kw)
    redistribute(pc)
    return ids


# -- ownership ---------------------------------------------------------------


def test_locate_half_open_example():
    pc = _setup(n=8, mgs=8)
    # dx = 1/8; 2.4 cells in = 0.3 physical; floor(2.4) = cell 2
    lev, grid, cell = locate(pc, (0.3, 0.3))
    assert lev == 0 and tuple(cell) == (2, 2)


def test_locate_matches_brute_force(rng):
    pc = _setup(n=16, mgs=4)
    geom = pc.geoms[0]
    for _ in range(300):
        pos = rng.random(DIM)
        lev, grid, cell = locate(pc, pos)
        want = tuple(
            int(np.floor((pos[d] - geom.prob_lo[d]) / geom.cell_size[d]))
            for d in range(DIM)
        )
        assert tuple(cell) == want
        assert pc.bas[0][grid].contains(IntVect(want))


def test_cell_boundary_goes_up():
    # a particle exactly on an interior cell face belongs to the upper cell
    pc = _setup(n=8, mgs=8)
    _, _, cell = locate(pc, (0.25, 0.25))
    assert tuple(cell) == (2, 2)


def test_ids_positive_and_unique(rng):
    pc = _setup(nranks=4)
    pc.add_particles(rng.random((100, DIM)))
    redistribute(pc)
    ids = pc.all_ids()
    assert (ids > 0).all()
    assert len(np.unique(ids)) == 100


def test_check_locations_detects_misfiled(rng):
    pc = _setup()
    _inject(pc, rng.random((50, DIM)))
    assert check_locations(pc) == []
    key = next(iter(pc.sorted_keys()))
    pc.tiles[key].aos["pos"][0] = (0.999, 0.999)
    bad = check_locations(pc)
    assert pc.tiles[key].aos["id"][0] in [b[0] for b in bad] or bad


# -- redistribution ----------------------------------------------------------


def test_redistribute_noop_is_identity(rng):
    pc = _setup(nranks=2)
    _inject(pc, rng.random((200, DIM)))
    before = {k: pc.tiles[k].aos.copy() for k in pc.sorted_keys()}
    redistribute(pc)
    assert pc.sorted_keys() == sorted(before)
    for k in before:
        assert np.array_equal(pc.tiles[k].aos, before[k])


def test_redistribute_periodic_wrap(rng):
    pc = _setup(nranks=2)
    ids = _inject(pc, rng.random((50, DIM)) * 0.05 + 0.01)
    for key in pc.sorted_keys():
        pc.tiles[key].aos["pos"] -= 0.06  # everyone leaves through the low wall
    redistribute(pc)
    assert check_locations(pc) == []
    assert pc.total_valid() == 50
    for key in pc.sorted_keys():
        assert (pc.tiles[key].aos["pos"] >= 0.0).all()


def test_negative_id_removed(rng):
    pc = _setup()
    _inject(pc, rng.random((20, DIM)))
    key = pc.sorted_keys()[0]
    doomed = int(pc.tiles[key].aos["id"][0])
    pc.tiles[key].aos["id"][0] = -doomed
    redistribute(pc)
    assert doomed not in set(pc.all_ids().tolist())
    assert pc.total_valid() == 19


def test_unlocatable_particle_raises_before_moving_any(rng):
    pc = _setup(nranks=2, periodic=False)
    _inject(pc, rng.random((100, DIM)) * 0.9)
    dx = pc.geoms[0].cell_size[0]
    keys = pc.sorted_keys()
    for key in keys:
        pc.tiles[key].aos["pos"] += 3.0 * dx  # many cross into other grids
    last = pc.tiles[keys[-1]]
    last.aos["pos"][0] = (1.5, 0.5)
    with pytest.raises(ParticleError) as err:
        redistribute(pc)
    assert err.value.ids == [int(last.aos["id"][0])]
    assert pc.total_valid() == 100


def test_storage_identical_across_rank_counts(rng):
    pos = rng.random((300, DIM))
    layouts = []
    for nranks in (1, 2, 4):
        pc = _setup(nranks=nranks)
        _inject(pc, pos.copy())
        layouts.append(
            {
                k: (t.aos["id"].copy(), t.aos["pos"].copy())
                for k, t in pc.tiles.items()
                if t.size
            }
        )
    for other in layouts[1:]:
        assert sorted(other) == sorted(layouts[0])
        for k in layouts[0]:
            assert np.array_equal(layouts[0][k][0], other[k][0])
            assert np.array_equal(layouts[0][k][1], other[k][1])


def test_local_mode_rejects_teleport(rng):
    pc = _setup(mgs=8)
    _inject(pc, rng.random((30, DIM)) * 0.2)  # all in the first grid
    for key in pc.sorted_keys():
        pc.tiles[key].aos["pos"][0] = (0.93, 0.93)  # far outside grid+k cells
    with pytest.raises(ParticleError):
        redistribute(pc, mode="local", k=1)


def test_local_mode_accepts_short_hops(rng):
    pc = _setup(mgs=8)
    _inject(pc, rng.random((100, DIM)))
    dx = pc.geoms[0].cell_size[0]
    for key in pc.sorted_keys():
        t = pc.tiles[key]
        # no pre-wrapping: redistribute owns the periodic wrap, and the
        # displacement check runs on the raw positions
        t.aos["pos"] = t.aos["pos"] + 0.9 * dx
    redistribute(pc, mode="local", k=1)
    assert check_locations(pc) == []
    assert pc.total_valid() == 100


def test_soak_multiset_identical_across_ranks(rng):
    # short soak; the long 500-step version runs in the acceptance suite
    pos = rng.random((150, DIM))
    results = {}
    for nranks in (1, 4):
        pc = _setup(nranks=nranks)
        ids = _inject(pc, pos.copy())
        for step in range(40):
            u = keyed_uniforms(3, step, ids, ncomp=DIM)
            delta = (2.0 * u - 1.0) * 0.04
            for key in pc.sorted_keys():
                t = pc.tiles[key]
                if t.size:
                    t.aos["pos"] = (t.aos["pos"] + delta[t.aos["id"] - 1]) % 1.0
            redistribute(pc)
        results[nranks] = sorted(pc.id_positions().items())
    assert results[1] == results[4]


def test_tile_writes_reach_redistribute_and_deposit(rng):
    pc = _setup(nranks=2, nreal=1)
    _inject(pc, rng.random((200, DIM)), rdata=np.ones((1, 200)))
    key = pc.sorted_keys()[0]
    t = pc.tiles[key]
    n = t.size
    # an extra written through rdata[c] is the deposit weight
    t.rdata[0] = 3.0
    mesh = FabArray(pc.bas[0], pc.dms[0], 1, 1)
    particle_to_mesh(pc, mesh, weight=0)
    assert gather_global(mesh, pc.geoms[0].domain).sum() == pytest.approx(200 + 2 * n)
    # positions written through aos["pos"], by element, by field and in
    # place, are what redistribute files the particles by
    first, second = int(t.aos["id"][0]), int(t.aos["id"][1])
    t.aos["pos"][0] = (0.99, 0.99)
    moved = t.aos["pos"].copy()
    moved[1] = (0.51, 0.02)
    t.aos["pos"] = moved
    for other in pc.sorted_keys()[1:]:
        pc.tiles[other].aos["pos"] += 0.25
    redistribute(pc)
    assert check_locations(pc) == []
    assert pc.total_valid() == 200
    for pid, at in ((first, (0.99, 0.99)), (second, (0.51, 0.02))):
        lev, grid, cell = locate(pc, at)
        tid = BruteForceRedistribute.locate_row(pc, np.array(at))[2]
        assert pid in pc.tiles[(lev, grid, tid)].aos["id"].tolist()
    # the deposit sees the moved weights too
    particle_to_mesh(pc, mesh, weight=0)
    assert gather_global(mesh, pc.geoms[0].domain).sum() == pytest.approx(200 + 2 * n)


def test_tile_keep_removes_from_the_store(rng):
    pc = _setup(nranks=2)
    _inject(pc, rng.random((100, DIM)))
    key = pc.sorted_keys()[1]
    t = pc.tiles[key]
    gone = t.aos["id"][::2].copy()
    mask = np.ones(t.size, dtype=bool)
    mask[::2] = False
    t.keep(mask)
    assert pc.total_valid() == 100 - gone.shape[0]
    assert not set(gone.tolist()) & set(pc.all_ids().tolist())
    assert t.aos.tobytes() == pc.tiles[key].aos.tobytes()
    assert check_locations(pc) == []


def test_particle_tile_has_no_copying_methods():
    for name in ("take", "extend", "sort_by_id"):
        assert not hasattr(ParticleTile, name)


# -- redistribution against a brute-force reference ----------------------------


class ListTile:
    """Separate storage for one (level, grid, tile) bucket, as containers
    kept it before the store: its own record array and extras, grown and
    shrunk by copying."""

    __slots__ = ("aos", "rdata", "idata")

    def __init__(self, dim, nreal, nint):
        self.aos = np.zeros(0, dtype=_aos_dtype(dim))
        self.rdata = np.zeros((nreal, 0))
        self.idata = np.zeros((nint, 0), dtype=np.int64)

    @property
    def size(self):
        return self.aos.shape[0]

    def keep(self, mask):
        self.aos = self.aos[mask]
        self.rdata = self.rdata[:, mask]
        self.idata = self.idata[:, mask]

    def extend(self, aos, rdata, idata):
        self.aos = np.concatenate([self.aos, aos])
        self.rdata = np.concatenate([self.rdata, rdata], axis=1)
        self.idata = np.concatenate([self.idata, idata], axis=1)

    def sort_by_id(self):
        order = np.argsort(self.aos["id"], kind="stable")
        self.aos = self.aos[order]
        self.rdata = self.rdata[:, order]
        self.idata = self.idata[:, order]

    def take(self, sel):
        """Copies of the records and extras at the selected indices."""
        return self.aos[sel].copy(), self.rdata[:, sel].copy(), self.idata[:, sel].copy()


class TileContainer(ParticleContainer):
    """A container whose tiles dict holds ListTiles, for the references;
    only the reference operations may touch it."""

    def tile(self, level, grid, tid, create=False):
        key = (int(level), int(grid), int(tid))
        if key not in self.tiles and create:
            self.tiles[key] = ListTile(self.dim, self.nreal, self.nint)
        return self.tiles.get(key)


class BruteForceRedistribute:
    """The per-particle container operations: every row is located by a
    containment scan over the boxes (finest level first, lowest index),
    its tile id computed on its own, and every moved particle travels as
    its own message entry."""

    @staticmethod
    def locate_row(pc, w):
        for lev in range(pc.nlevels - 1, -1, -1):
            cell = _cells_at(pc.geoms[lev], w[None, :])[0].tolist()
            for g, box in enumerate(pc.bas[lev]):
                if box.contains(IntVect(cell)):
                    tid = 0
                    for d in range(pc.dim):
                        ntiles = -(-box.extents()[d] // pc.tile_size[d])
                        tid = tid * ntiles + (cell[d] - box.lo[d]) // pc.tile_size[d]
                    return (lev, g, tid)
        raise ParticleError("no level covers particle position")

    @classmethod
    def add_particles(cls, pc, pos, rdata, idata, ids):
        aos = np.zeros(len(ids), dtype=_aos_dtype(pc.dim))
        aos["id"] = ids
        aos["pos"] = _wrap_positions(pc.geoms[0], pos)
        touched = set()
        for i in range(len(ids)):
            key = cls.locate_row(pc, aos["pos"][i])
            pc.tile(*key, create=True).extend(aos[i : i + 1], rdata[:, i : i + 1], idata[:, i : i + 1])
            touched.add(key)
        for key in touched:
            pc.tiles[key].sort_by_id()
        pc.epoch += 1

    @classmethod
    def check_locations(cls, pc):
        bad = []
        for key in pc.sorted_keys():
            tile = pc.tiles[key]
            for i in range(tile.size):
                w = _wrap_positions(pc.geoms[0], tile.aos["pos"][i : i + 1])[0]
                expect = cls.locate_row(pc, w)
                if expect != key:
                    bad.append((int(tile.aos["id"][i]), key, expect))
        return bad

    @classmethod
    def redistribute(cls, pc, transport, mode="global", k=None, subcycle=None):
        if mode == "local":
            kk = _default_local_k(pc) if k is None else int(k)
            violations = []
            for key in pc.sorted_keys():
                lev, g, t = key
                tile = pc.tiles[key]
                tbox = tile_box_of(pc.bas[lev][g], pc.tile_size, t).grow(kk)
                for i in range(tile.size):
                    if tile.aos["id"][i] <= 0:
                        continue
                    cell = _cells_at(pc.geoms[lev], tile.aos["pos"][i : i + 1])[0]
                    if not tbox.contains(IntVect(cell.tolist())):
                        violations.append(int(tile.aos["id"][i]))
            if violations:
                raise ParticleError("local-mode displacement bound exceeded", violations)
        sub_levels = set(subcycle["levels"]) if subcycle else set()
        band = subcycle.get("band", 0) if subcycle else 0
        pc.epoch += 1
        outbox = {}
        arrivals = []
        moved = 0
        for key in pc.sorted_keys():
            lev, g, t = key
            tile = pc.tiles[key]
            tile.keep(tile.aos["id"] > 0)
            if tile.size == 0:
                del pc.tiles[key]
                continue
            tbox = tile_box_of(pc.bas[lev][g], pc.tile_size, t).grow(band)
            leaving = []
            for i in range(tile.size):
                if lev in sub_levels:
                    cell = _cells_at(pc.geoms[lev], tile.aos["pos"][i : i + 1])[0]
                    if tbox.contains(IntVect(cell.tolist())):
                        continue
                tile.aos["pos"][i] = _wrap_positions(pc.geoms[0], tile.aos["pos"][i : i + 1])[0]
                dkey = cls.locate_row(pc, tile.aos["pos"][i])
                if dkey != key:
                    leaving.append((i, dkey))
            src_rank = pc.dms[lev][g]
            for i, dkey in leaving:
                entry = (dkey,) + tile.take(slice(i, i + 1))
                dst_rank = pc.dms[dkey[0]][dkey[1]]
                if dst_rank == src_rank:
                    arrivals.append(entry)
                else:
                    outbox.setdefault((src_rank, dst_rank), _Packed()).append(entry)
            keep = np.ones(tile.size, dtype=bool)
            keep[[i for i, _ in leaving]] = False
            tile.keep(keep)
            moved += len(leaving)
            if tile.size == 0:
                del pc.tiles[key]
        for (sr, dr), payload in sorted(outbox.items()):
            transport.send(sr, dr, "redistribute", payload)
        for dr in range(pc.nranks):
            for _, _, payload in transport.drain(dr):
                arrivals.extend(payload)
        for dkey, aos, rdata, idata in arrivals:
            pc.tile(*dkey, create=True).extend(aos, rdata, idata)
        for dkey in {a[0] for a in arrivals}:
            pc.tiles[dkey].sort_by_id()
        counters.incr("particles_redistributed", moved)


def _random_layouts(rng, dim, nlevels, nranks, periodic):
    """Geometries, random covers and SFC maps of one or two levels; the
    second level covers one refined box exactly."""
    n = 16 if dim < 3 else 8
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    geoms = [Geometry(domain, (0.0,) * dim, (1.0,) * dim, periodic)]
    bas = [random_cover(rng, domain, nsplits=int(rng.integers(3, 9)))]
    if nlevels == 2:
        # a fine patch over part of the domain, refined by 2
        lo = [int(rng.integers(0, n // 2)) for _ in range(dim)]
        hi = [l + int(rng.integers(2, n // 2)) for l in lo]
        patch = random_cover(rng, Box(IntVect(lo), IntVect(hi)), nsplits=3)
        geoms.append(geoms[0].refine(2))
        bas.append(patch.refine(2))
    dms = [sfc_distribute(ba, default_costs(ba), nranks) for ba in bas]
    return geoms, bas, dms


def _two_containers(rng, dim, nlevels, nranks, periodic, npart, tile=None):
    geoms, bas, dms = _random_layouts(rng, dim, nlevels, nranks, periodic)
    if tile is None:
        tile = int(rng.integers(2, 6))
    pcs = [
        cls(geoms, bas, dms, nreal=2, nint=1, tile_size=tile)
        for cls in (ParticleContainer, TileContainer)
    ]
    pos = rng.random((npart, dim))
    # repeated ids make arrival order visible in storage (stable id sort)
    ids = rng.integers(1, npart // 2, size=npart).astype(np.int64)
    rdata = rng.random((2, npart))
    idata = rng.integers(-50, 50, size=(1, npart)).astype(np.int64)
    pcs[0].add_particles(pos, rdata=rdata, idata=idata, ids=ids)
    BruteForceRedistribute.add_particles(pcs[1], pos, rdata, idata, ids)
    return pcs


def _assert_same_storage(a, b):
    assert a.sorted_keys() == b.sorted_keys()
    for key in a.sorted_keys():
        ta, tb = a.tiles[key], b.tiles[key]
        assert ta.aos.tobytes() == tb.aos.tobytes()
        assert ta.rdata.tobytes() == tb.rdata.tobytes()
        assert ta.idata.tobytes() == tb.idata.tobytes()


def _traffic(fn, *args, **kw):
    before = counters.snapshot()
    fn(*args, **kw)
    after = counters.snapshot()
    return tuple(
        after.get(c, 0) - before.get(c, 0)
        for c in ("transport_messages", "transport_bytes", "particles_redistributed")
    )


def test_redistribute_matches_brute_force(rng):
    modes = [
        {"mode": "global"},
        {"mode": "local"},
        {"mode": "global", "subcycle": {"levels": [0], "band": 1}},
        {"mode": "global", "subcycle": {"levels": [1], "band": 0}},
    ]
    trial = 0
    for nranks in (1, 2, 4, 8):
        for dim in (2, 3):
            for nlevels in (1, 2):
                trial += 1
                periodic = bool(trial % 3)
                new, ref = _two_containers(rng, dim, nlevels, nranks, periodic, 240)
                _assert_same_storage(new, ref)
                assert check_locations(new) == []
                dx = np.asarray(new.geoms[-1].cell_size)
                for step in range(3):
                    kw = modes[(trial + step) % len(modes)]
                    hop = 2.5 if kw["mode"] == "global" else 0.9
                    for key in new.sorted_keys():
                        tn, tr = new.tiles[key], ref.tiles[key]
                        delta = (2.0 * rng.random(tn.aos["pos"].shape) - 1.0) * hop * dx
                        moved = tn.aos["pos"] + delta
                        if not periodic:
                            moved = np.clip(moved, 0.0, np.nextafter(1.0, 0.0))
                        tn.aos["pos"] = moved
                        tr.aos["pos"] = moved
                        doomed = rng.random(tn.size) < 0.05
                        tn.aos["id"][doomed] *= -1
                        tr.aos["id"][doomed] *= -1
                    got = _traffic(redistribute, new, Transport(nranks), **kw)
                    want = _traffic(BruteForceRedistribute.redistribute, ref, Transport(nranks), **kw)
                    assert got == want
                    _assert_same_storage(new, ref)
                    if "subcycle" not in kw:
                        assert check_locations(new) == []


def test_check_locations_matches_brute_force(rng):
    for nlevels in (1, 2):
        pc, _ = _two_containers(rng, 2, nlevels, 2, True, 200)
        for key in pc.sorted_keys()[::2]:
            t = pc.tiles[key]
            t.aos["pos"][::3] = rng.random((t.aos["pos"][::3].shape[0], 2))
        want = BruteForceRedistribute.check_locations(pc)
        assert want
        assert check_locations(pc) == want


# -- scans -------------------------------------------------------------------


def test_prefix_scan_matches_numpy(rng):
    vals = rng.integers(0, 10, size=1000).astype(np.int64)
    out = np.zeros_like(vals)

    def run(kind, chunk):
        total = prefix_scan(
            len(vals),
            lambda i: vals[i],
            lambda i, v: out.__setitem__(i, v),
            kind=kind,
            chunk=chunk,
        )
        return total, out.copy()

    t1, ex = run("exclusive", 64)
    assert t1 == vals.sum()
    assert np.array_equal(ex, np.concatenate([[0], np.cumsum(vals)[:-1]]))
    t2, inc = run("inclusive", 37)
    assert np.array_equal(inc, np.cumsum(vals))
    assert t2 == vals.sum()


def test_prefix_scan_chunk_size_invariant(rng):
    vals = rng.normal(size=513)
    outs = []
    for chunk in (1, 7, 64, 10000):
        out = np.zeros_like(vals)
        prefix_scan(
            len(vals),
            lambda i: vals[i],
            lambda i, v: out.__setitem__(i, v),
            chunk=chunk,
        )
        outs.append(out.copy())
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)  # bitwise, not approximate


def test_bin_permutation_example():
    counts, offsets, perm = bin_permutation(np.array([2, 0, 1, 0]), 3)
    assert counts.tolist() == [2, 1, 1]
    assert offsets.tolist() == [0, 2, 3]
    assert perm.tolist() == [1, 3, 2, 0]


def test_bin_permutation_groups_stable(rng):
    cells = rng.integers(0, 16, size=1000)
    counts, offsets, perm = bin_permutation(cells, 16)
    assert counts.sum() == 1000
    binned = cells[perm]
    assert (np.diff(binned) >= 0).all()
    # stability: equal bins keep original relative order
    for b in range(16):
        idx = perm[offsets[b] : offsets[b] + counts[b]]
        assert (np.diff(idx) > 0).all()


def test_compact_and_partition(rng):
    vals = rng.integers(0, 100, size=500)
    keep = lambda i: vals[i] % 3 == 0
    kept, idx = stream_compact(len(vals), keep)
    want = np.nonzero(vals % 3 == 0)[0]
    assert kept == len(want)
    assert np.array_equal(np.asarray(idx), want)
    nkept, perm = partition(len(vals), keep)
    assert nkept == len(want)
    assert np.array_equal(np.asarray(perm[:nkept]), want)
    assert sorted(perm) == list(range(500))


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
def test_redistribute_raises_on_bad_delivery(rng, fault):
    # a lost message would silently lose particles, a duplicate clone them
    nranks = 4
    pc = _setup(nranks=nranks)
    _inject(pc, rng.random((300, DIM)))
    for key in pc.sorted_keys():
        pc.tiles[key].aos["pos"] = rng.random((pc.tiles[key].size, DIM))
    tr = FaultyTransport(nranks, fault, at=1)
    with pytest.raises(TransportError):
        redistribute(pc, tr)
    assert tr.sent > 1


# -- halos and neighbor lists --------------------------------------------------


def test_halo_update_propagates_moves(rng):
    pc = _setup(nranks=2, nreal=1)
    pos = rng.random((200, DIM))
    ids = _inject(pc, pos, rdata=pos[:, :1].T.copy())
    halo = fill_neighbors(pc, nghost=2)
    # move owners slightly, then update; ghost copies must follow
    for key in pc.sorted_keys():
        t = pc.tiles[key]
        t.aos["pos"] = np.clip(t.aos["pos"] + 1e-4, 0.0, 0.999999)
        t.rdata[0] = t.aos["pos"][:, 0]
    update_neighbors(pc, halo)
    owned = pc.id_positions()
    dx = np.asarray(pc.geoms[0].cell_size)
    for key in sorted(halo.tiles):
        ht = halo.tiles[key]
        for k in range(ht.size):
            pid = int(ht.ids[k])
            want = np.asarray(owned[pid]) + ht.shift[k] * dx
            assert np.allclose(ht.pos[k], want, rtol=0, atol=1e-15)
            assert ht.rdata[0, k] == owned[pid][0]


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
@pytest.mark.parametrize("op", ["fill_neighbors", "update_neighbors", "sum_neighbors"])
def test_halo_exchange_raises_on_bad_delivery(rng, op, fault):
    nranks = 4
    pc = _setup(nranks=nranks)
    _inject(pc, rng.random((300, DIM)))
    tr = FaultyTransport(nranks, fault, at=1)
    with pytest.raises(TransportError):
        if op == "fill_neighbors":
            fill_neighbors(pc, 2, tr)
        else:
            halo = fill_neighbors(pc, 2)
            if op == "update_neighbors":
                update_neighbors(pc, halo, tr)
            else:
                sum_neighbors(pc, halo, 0, tr)
    assert tr.sent > 1


def test_stale_halo_rejected(rng):
    pc = _setup()
    _inject(pc, rng.random((50, DIM)))
    halo = fill_neighbors(pc, nghost=1)
    redistribute(pc)  # bumps the epoch
    with pytest.raises(ParticleError):
        update_neighbors(pc, halo)


def test_sum_neighbors_accumulates_ghost_contributions(rng):
    pc = _setup(nranks=2, nreal=1)
    pos = rng.random((150, DIM))
    _inject(pc, pos, rdata=np.zeros((1, 150)))
    halo = fill_neighbors(pc, nghost=2)
    # write 1.0 into every ghost copy, then fold back: each particle must
    # receive exactly its number of ghost replicas
    replica_count = {}
    for key in sorted(halo.tiles):
        ht = halo.tiles[key]
        ht.rdata[0, :] = 1.0
        for k in range(ht.size):
            pid = int(ht.ids[k])
            replica_count[pid] = replica_count.get(pid, 0) + 1
    sum_neighbors(pc, halo, comp=0)
    for key in pc.sorted_keys():
        t = pc.tiles[key]
        for k in range(t.size):
            pid = int(t.aos["id"][k])
            assert t.rdata[0, k] == float(replica_count.get(pid, 0))


class LoopHalo:
    """The per-copy halo operations: one one-row intersections query per
    (tile, periodic shift), one message entry per copy, and per (holder
    tile, owner tile) loops to refresh and fold back."""

    class Tile:
        __slots__ = ("pos", "ids", "rdata", "src_grid", "src_tile", "src_slot", "shift")

        @property
        def size(self):
            return self.ids.shape[0]

    class Halo:
        def __init__(self, nghost, epoch):
            self.nghost = nghost
            self.epoch = epoch
            self.tiles = {}

    @classmethod
    def fill(cls, pc, nghost, transport):
        halo = cls.Halo(nghost, pc.epoch)
        outbox = {}
        arrivals = []
        for key in pc.sorted_keys():
            lev, g, t = key
            tile = pc.tiles[key]
            if tile.size == 0:
                continue
            geom = pc.geoms[lev]
            dx = np.asarray(geom.cell_size)
            layout_ba, layout_keys = pc.tile_layout(lev)
            cells = _cells_at(geom, tile.aos["pos"])
            src_rank = pc.dms[lev][g]
            for s in _periodic_shifts(geom.domain, geom.periodic, geom.dim):
                sc = np.asarray(s, dtype=np.int64)
                shifted = cells + sc
                probe = Box(
                    IntVect(int(shifted[:, d].min()) - nghost for d in range(pc.dim)),
                    IntVect(int(shifted[:, d].max()) + nghost for d in range(pc.dim)),
                )
                for bidx, _ in box_hits(layout_ba, probe):
                    g2, t2 = map(int, layout_keys[bidx])
                    if not any(s) and (g2, t2) == (g, t):
                        continue
                    tb = layout_ba[bidx].grow(nghost)
                    inside = np.ones(tile.size, dtype=bool)
                    for d in range(pc.dim):
                        inside &= (shifted[:, d] >= tb.lo[d]) & (shifted[:, d] <= tb.hi[d])
                    pos_img = tile.aos["pos"] + sc * dx
                    dkey = (lev, g2, t2)
                    dst_rank = pc.dms[lev][g2]
                    for i in np.nonzero(inside)[0]:
                        entry = (dkey, pos_img[i], int(tile.aos["id"][i]),
                                 tile.rdata[:, i].copy(), g, t, int(i), sc)
                        if dst_rank == src_rank:
                            arrivals.append(entry)
                        else:
                            outbox.setdefault((src_rank, dst_rank), _Packed()).append(entry)
        arrivals.extend(_exchange(transport, outbox, "fill_neighbors"))
        grouped = {}
        for entry in arrivals:
            grouped.setdefault(entry[0], []).append(entry)
        for dkey in sorted(grouped):
            rows = grouped[dkey]
            ht = cls.Tile()
            ht.pos = np.array([r[1] for r in rows])
            ht.ids = np.array([r[2] for r in rows], dtype=np.int64)
            ht.rdata = np.stack([r[3] for r in rows], axis=1) if pc.nreal else np.zeros((0, len(rows)))
            ht.src_grid = np.array([r[4] for r in rows], dtype=np.int64)
            ht.src_tile = np.array([r[5] for r in rows], dtype=np.int64)
            ht.src_slot = np.array([r[6] for r in rows], dtype=np.int64)
            ht.shift = np.stack([r[7] for r in rows])
            order = np.lexsort(
                tuple(ht.shift[:, d] for d in range(pc.dim - 1, -1, -1))
                + (ht.src_slot, ht.src_tile, ht.src_grid)
            )
            for name in cls.Tile.__slots__:
                value = getattr(ht, name)
                setattr(ht, name, value[:, order] if name == "rdata" else value[order])
            halo.tiles[dkey] = ht
        counters.incr("halo_copies", sum(ht.size for ht in halo.tiles.values()))
        return halo

    @staticmethod
    def update(pc, halo, transport):
        outbox = {}
        for dkey in sorted(halo.tiles):
            lev = dkey[0]
            ht = halo.tiles[dkey]
            dx = np.asarray(pc.geoms[lev].cell_size)
            holder = pc.dms[lev][dkey[1]]
            owner_ranks = np.array([pc.dms[lev][g] for g in ht.src_grid])
            fresh_pos = np.empty_like(ht.pos)
            fresh_r = np.empty_like(ht.rdata)
            for g2, t2 in sorted(set(zip(ht.src_grid.tolist(), ht.src_tile.tolist()))):
                sel = (ht.src_grid == g2) & (ht.src_tile == t2)
                src = pc.tiles[(lev, g2, t2)]
                slots = ht.src_slot[sel]
                fresh_pos[sel] = src.aos["pos"][slots] + ht.shift[sel] * dx
                fresh_r[:, sel] = src.rdata[:, slots]
            local = owner_ranks == holder
            ht.pos[local] = fresh_pos[local]
            ht.rdata[:, local] = fresh_r[:, local]
            for orank in sorted(set(owner_ranks.tolist()) - {holder}):
                sel = np.nonzero(owner_ranks == orank)[0]
                outbox.setdefault((orank, holder), _Packed()).append(
                    (dkey, sel, fresh_pos[sel], fresh_r[:, sel])
                )
        for dkey, sel, pos_new, r_new in _exchange(transport, outbox, "update_neighbors"):
            ht = halo.tiles[dkey]
            ht.pos[sel] = pos_new
            ht.rdata[:, sel] = r_new

    @staticmethod
    def sum(pc, halo, comp, transport):
        cols = []
        outbox = {}
        for hidx, dkey in enumerate(sorted(halo.tiles)):
            lev = dkey[0]
            ht = halo.tiles[dkey]
            holder = pc.dms[lev][dkey[1]]
            owner_ranks = np.array([pc.dms[lev][g] for g in ht.src_grid])
            block = np.column_stack(
                [np.full(ht.size, lev, dtype=np.int64), ht.src_grid, ht.src_tile,
                 ht.src_slot, np.full(ht.size, hidx, dtype=np.int64),
                 np.arange(ht.size, dtype=np.int64)]
            )
            vals = ht.rdata[comp]
            local = owner_ranks == holder
            if local.any():
                cols.append((block[local], vals[local]))
            for orank in sorted(set(owner_ranks.tolist()) - {holder}):
                sel = owner_ranks == orank
                outbox.setdefault((holder, orank), _Packed()).append((block[sel], vals[sel]))
        cols.extend(_exchange(transport, outbox, "sum_neighbors"))
        if not cols:
            return
        keys = np.concatenate([c[0] for c in cols])
        vals = np.concatenate([c[1] for c in cols])
        order = np.lexsort(tuple(keys[:, c] for c in range(5, -1, -1)))
        keys = keys[order]
        vals = vals[order]
        for i, j in zip(*_runs(keys[:, 0], keys[:, 1], keys[:, 2])):
            tile = pc.tiles[tuple(keys[i, :3].tolist())]
            np.add.at(tile.rdata[comp], keys[i:j, 3], vals[i:j])


def _assert_same_halo(got, want):
    assert list(got.tiles) == sorted(want.tiles)
    for key, wt in want.tiles.items():
        gt = got.tiles[key]
        for name in LoopHalo.Tile.__slots__:
            a, b = getattr(gt, name), getattr(wt, name)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), (key, name)
            assert a.tobytes() == b.tobytes(), (key, name)


def _halo_traffic(fn, *args):
    before = counters.snapshot()
    out = fn(*args)
    after = counters.snapshot()
    counts = {
        c: after.get(c, 0) - before.get(c, 0)
        for c in ("transport_messages", "transport_bytes", "halo_copies")
    }
    return out, counts


def test_halo_matches_loop_reference(rng):
    periodics = [True, (True, False, True), False, (False, True, True)]
    trial = 0
    for nranks in (1, 2, 4, 8):
        for dim in (2, 3):
            for nlevels in (1, 2):
                for nghost in (1, 2):
                    trial += 1
                    periodic = periodics[trial % 4]
                    if not isinstance(periodic, bool):
                        periodic = periodic[:dim]
                    tile = trial % 5 + 1
                    new, ref = _two_containers(
                        rng, dim, nlevels, nranks, periodic, 120, tile=tile
                    )
                    got, gc = _halo_traffic(fill_neighbors, new, nghost, Transport(nranks))
                    want, wc = _halo_traffic(LoopHalo.fill, ref, nghost, Transport(nranks))
                    _assert_same_halo(got, want)
                    assert gc["halo_copies"] == wc["halo_copies"] == got.total
                    assert gc["transport_messages"] == wc["transport_messages"]
                    # owners move and change payload; copies must follow
                    for key in new.sorted_keys():
                        tn, tr = new.tiles[key], ref.tiles[key]
                        moved = tn.aos["pos"] + 0.25 * rng.random(tn.aos["pos"].shape)
                        tn.aos["pos"] = tr.aos["pos"] = moved
                        tn.rdata[...] = tr.rdata[...] = rng.random(tn.rdata.shape)
                    _, gc = _halo_traffic(update_neighbors, new, got, Transport(nranks))
                    _, wc = _halo_traffic(LoopHalo.update, ref, want, Transport(nranks))
                    _assert_same_halo(got, want)
                    assert gc == wc
                    for key, ht in want.tiles.items():
                        ht.rdata[1] = got.tiles[key].rdata[1] = rng.random(ht.size) - 0.5
                    _, gc = _halo_traffic(sum_neighbors, new, got, 1, Transport(nranks))
                    _, wc = _halo_traffic(LoopHalo.sum, ref, want, 1, Transport(nranks))
                    assert gc == wc
                    _assert_same_storage(new, ref)


def test_sum_neighbors_rank_invariant_with_fractional_values(rng):
    pos = rng.random((400, DIM))
    rdata = rng.random((1, 400)) * 100.0
    results = {}
    for nranks in (1, 2, 4, 8):
        pc = _setup(n=16, mgs=4, nranks=nranks, tile_size=2)
        _inject(pc, pos, rdata=rdata.copy())
        halo = fill_neighbors(pc, nghost=2, transport=Transport(nranks))
        # values spanning many magnitudes make every change of summation
        # order visible in the last bits
        g = np.random.default_rng(7)
        halo.rdata[0] = g.random(halo.total) * 10.0 ** g.integers(-6, 7, halo.total)
        sum_neighbors(pc, halo, 0, Transport(nranks))
        results[nranks] = [
            (key, pc.tiles[key].aos.tobytes(), pc.tiles[key].rdata.tobytes())
            for key in pc.sorted_keys()
        ]
    assert results[1] == results[2] == results[4] == results[8]


def test_neighbor_list_matches_n_squared(rng):
    cutoff_cells = 1
    for trial in range(5):
        pc = _setup(n=16, mgs=8, nranks=2)
        npart = 400
        pos = rng.random((npart, DIM))
        ids = _inject(pc, pos)
        dx = pc.geoms[0].cell_size[0]
        cutoff = cutoff_cells * dx
        halo = fill_neighbors(pc, nghost=cutoff_cells)
        nl = build_neighbor_list(pc, halo, cutoff)
        got = set(map(tuple, nl.id_pairs()))
        want = set()
        ppos = pc.id_positions()
        keys = sorted(ppos)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                d = np.abs(np.asarray(ppos[a]) - np.asarray(ppos[b]))
                d = np.minimum(d, 1.0 - d)  # periodic metric
                if (d * d).sum() <= cutoff * cutoff:
                    want.add((a, b))
        assert got == want


def test_neighbor_list_predicate_replaces_distance_filter(rng):
    pc = _setup(n=16, mgs=8)
    pos = rng.random((400, DIM))
    _inject(pc, pos)
    dx = pc.geoms[0].cell_size[0]
    halo = fill_neighbors(pc, nghost=1)
    # a tighter distance predicate must reproduce a plain build at the
    # tighter cutoff, independent of the candidate bin size
    tight = 0.5 * dx
    pred = lambda pa, pb: ((pa - pb) ** 2).sum(axis=1) <= tight * tight
    filtered = build_neighbor_list(pc, halo, dx, predicate=pred)
    direct = build_neighbor_list(pc, halo, tight)
    assert set(map(tuple, filtered.id_pairs())) == set(map(tuple, direct.id_pairs()))


class TileLoopNeighborList:
    """The per-tile neighbour list build: one neighbor_pairs call per
    non-empty tile over its owned then halo particles, binned over the
    tile region grown by the halo width."""

    @staticmethod
    def build(pc, halo, cutoff, predicate=None):
        out = {}
        for key in pc.sorted_keys():
            lev, g, t = key
            tile = pc.tiles[key]
            geom = pc.geoms[lev]
            dx = np.asarray(geom.cell_size)
            ht = halo.tiles.get(key)
            own_pos = tile.aos["pos"]
            if ht is not None and ht.size:
                all_pos = np.concatenate([own_pos, ht.pos])
                all_ids = np.concatenate([tile.aos["id"], ht.ids])
            else:
                all_pos = own_pos
                all_ids = tile.aos["id"].copy()
            tbox = tile_box_of(pc.bas[lev][g], pc.tile_size, t)
            plo = np.asarray(geom.prob_lo)
            dlo = np.asarray(geom.domain.lo.coords)
            lo = plo + (np.asarray(tbox.lo.coords) - dlo - halo.nghost) * dx
            hi = plo + (np.asarray(tbox.hi.coords) - dlo + 1 + halo.nghost) * dx
            if predicate is None:
                pairs = neighbor_pairs(all_pos, lo, hi, cutoff)
            else:
                pairs = neighbor_pairs(all_pos, lo, hi, cutoff, max_dist=np.inf)
                if pairs.shape[0]:
                    keep = predicate(all_pos[pairs[:, 0]], all_pos[pairs[:, 1]])
                    pairs = pairs[np.asarray(keep, dtype=bool)]
            n_own = own_pos.shape[0]
            if pairs.shape[0]:
                a, b = pairs[:, 0], pairs[:, 1]
                src = np.concatenate([a[a < n_own], b[b < n_own]])
                dst = np.concatenate([b[a < n_own], a[b < n_own]])
                order = np.lexsort((dst, src))
                src, dst = src[order], dst[order]
            else:
                src = np.empty(0, dtype=np.int64)
                dst = np.empty(0, dtype=np.int64)
            counts = np.bincount(src, minlength=n_own)
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            out[key] = (offsets, dst, all_ids, n_own)
        return out


def test_neighbor_list_matches_tile_loop_reference(rng, monkeypatch):
    calls = []
    fn = kernels.neighbor_pairs
    monkeypatch.setattr(kernels, "neighbor_pairs", lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    seen = set()
    trial = 0
    for nranks in (1, 3, 4):
        for dim in (2, 3):
            for nlevels in (1, 2):
                for use_predicate in (False, True):
                    trial += 1
                    pc, _ = _two_containers(
                        rng, dim, nlevels, nranks, bool(trial % 2), 150, tile=trial % 3 + 2
                    )
                    redistribute(pc, Transport(nranks))
                    nghost = 1 + trial % 2
                    halo = fill_neighbors(pc, nghost, Transport(nranks))
                    cutoff = nghost * min(pc.geoms[-1].cell_size) * (0.6 + 0.4 * rng.random())
                    pred = None
                    if use_predicate:
                        tight = 0.7 * cutoff
                        pred = lambda pa, pb, t=tight: ((pa - pb) ** 2).sum(axis=1) <= t * t
                    del calls[:]
                    got = build_neighbor_list(pc, halo, cutoff, predicate=pred)
                    assert len(calls) == 1
                    want = TileLoopNeighborList.build(pc, halo, cutoff, predicate=pred)
                    assert list(got.tiles) == list(want)
                    for key, (offsets, indices, ids, n_owned) in want.items():
                        tl = got.tiles[key]
                        assert tl.n_owned == n_owned
                        for a, b in ((tl.offsets, offsets), (tl.indices, indices), (tl.ids, ids)):
                            assert (a.dtype, a.shape) == (b.dtype, b.shape)
                            assert a.tobytes() == b.tobytes()
                    layout_tiles = sum(len(pc.tile_layout(lev)[0]) for lev in range(pc.nlevels))
                    seen |= {
                        ("empty tiles", len(want) < layout_tiles),
                        ("halo-only tiles", bool(set(halo.tiles) - set(want))),
                        ("pairs", any(len(v[1]) for v in want.values())),
                    }
    assert seen >= {("empty tiles", True), ("halo-only tiles", True), ("pairs", True)}


# -- particle-mesh -----------------------------------------------------------


def test_ngp_deposit_counts_cells(rng):
    pc = _setup(n=8, mgs=8)
    pos = rng.random((64, DIM))
    _inject(pc, pos)
    mesh = FabArray(pc.bas[0], pc.dms[0], 1, 1)
    particle_to_mesh(pc, mesh, kernel="ngp")
    g = gather_global(mesh, pc.geoms[0].domain)
    want = np.zeros_like(g)
    for p in pos:
        c = tuple(int(v * 8) for v in p)
        want[c] += 1.0
    assert np.array_equal(g, want)


def test_cic_corner_particle_spreads_quarters():
    pc = _setup(n=8, mgs=8)
    pc.add_particles(np.array([[0.25, 0.25]]), ids=np.array([1], dtype=np.int64))
    redistribute(pc)
    mesh = FabArray(pc.bas[0], pc.dms[0], 1, 1)
    particle_to_mesh(pc, mesh, kernel="cic")
    g = gather_global(mesh, pc.geoms[0].domain)
    want = np.zeros((8, 8))
    want[1:3, 1:3] = 0.25
    assert np.allclose(g, want, rtol=0, atol=1e-15)


def test_cic_conserves_and_rank_invariant(rng):
    pos = rng.random((500, DIM))
    w = rng.random(500) + 0.5
    results = []
    for nranks in (1, 2, 4):
        pc = _setup(nranks=nranks, nreal=1)
        _inject(pc, pos.copy(), rdata=w[None, :].copy())
        mesh = FabArray(pc.bas[0], pc.dms[0], 1, 1)
        particle_to_mesh(pc, mesh, kernel="cic", weight=0)
        g = gather_global(mesh, pc.geoms[0].domain)
        results.append(g)
        assert abs(g.sum() - w.sum()) <= 1e-12 * w.sum()
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def test_cic_gather_reproduces_linear_field(rng):
    pc = _setup(n=16, mgs=8, nreal=1, periodic=False)
    # interior particles only, away from the domain frame
    pos = 0.25 + 0.5 * rng.random((200, DIM))
    _inject(pc, pos, rdata=np.zeros((1, 200)))
    mesh = FabArray(pc.bas[0], pc.dms[0], 1, 1)
    geom = pc.geoms[0]
    for i in range(len(mesh.ba)):
        b = mesh.ba[i]
        arr = mesh.fab(i).valid(0)
        for c in b.cells():
            x = geom.cell_center(IntVect(c))
            arr[tuple(c[d] - b.lo[d] for d in range(DIM))] = 3.0 * x[0] - 2.0 * x[1]
    mesh_to_particle(pc, mesh, kernel="cic", out_comp=0)
    for key in pc.sorted_keys():
        t = pc.tiles[key]
        for k in range(t.size):
            x = t.aos["pos"][k]
            assert abs(t.rdata[0, k] - (3.0 * x[0] - 2.0 * x[1])) < 1e-12


def test_dual_grid_deposit_matches_single_grid(rng):
    # particles balanced on their own layout deposit onto the mesh layout
    # with the same result as a shared layout
    dim = DIM
    domain = Box(IntVect.zero(dim), IntVect(15, 15))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, True)
    mesh_ba = BoxArray([domain]).max_size(8)
    part_ba = BoxArray([domain]).max_size(4)
    dm_m = sfc_distribute(mesh_ba, default_costs(mesh_ba), 2)
    dm_p = sfc_distribute(part_ba, default_costs(part_ba), 2)
    pc = ParticleContainer([geom], [part_ba], [dm_p], nreal=1)
    pos = rng.random((300, dim))
    w = rng.random(300)
    pc.add_particles(pos, rdata=w[None, :], ids=np.arange(1, 301, dtype=np.int64))
    redistribute(pc)
    mesh = FabArray(mesh_ba, dm_m, 1, 1)
    particle_to_mesh(pc, mesh, kernel="cic", weight=0, dual_grid=True)
    got = gather_global(mesh, domain)

    pc2 = _setup(n=16, mgs=8, nranks=2, nreal=1)
    pc2.add_particles(pos, rdata=w[None, :], ids=np.arange(1, 301, dtype=np.int64))
    redistribute(pc2)
    mesh2 = FabArray(pc2.bas[0], pc2.dms[0], 1, 1)
    particle_to_mesh(pc2, mesh2, kernel="cic", weight=0)
    assert np.allclose(got, gather_global(mesh2, domain), rtol=0, atol=1e-13)


def test_dual_grid_transfer_needs_no_mesh_ghosts(rng):
    # the dual-grid scratch FabArrays carry the kernel's ghost cells and
    # only valid cells reach the mesh, so an ngrow=0 mesh gives the same
    # valid cells as an ngrow=1 mesh; on the particle layout itself the
    # mesh needs the ghosts
    domain = Box(IntVect.zero(DIM), IntVect(15, 15))
    geom = Geometry(domain, (0.0,) * DIM, (1.0,) * DIM, True)
    mesh_ba = BoxArray([domain]).max_size(8)
    part_ba = BoxArray([domain]).max_size(4)
    dm_m = sfc_distribute(mesh_ba, default_costs(mesh_ba), 2)
    dm_p = sfc_distribute(part_ba, default_costs(part_ba), 2)
    pc = ParticleContainer([geom], [part_ba], [dm_p], nreal=1)
    pc.add_particles(rng.random((300, DIM)), ids=np.arange(1, 301, dtype=np.int64))
    redistribute(pc)
    deposits, gathers = [], []
    for ngrow in (0, 1):
        mesh = FabArray(mesh_ba, dm_m, 1, ngrow)
        particle_to_mesh(pc, mesh, dual_grid=True)
        deposits.append(gather_global(mesh, domain))
        vals = mesh_to_particle(pc, mesh, dual_grid=True)
        gathers.append(np.concatenate([vals[k] for k in pc.sorted_keys()]))
    assert deposits[0].tobytes() == deposits[1].tobytes()
    assert deposits[0].sum() == pytest.approx(300.0)
    assert gathers[0].tobytes() == gathers[1].tobytes()
    with pytest.raises(ParticleError, match="kernel radius"):
        particle_to_mesh(pc, FabArray(part_ba, dm_p, 1, 0))


class TileLoopTransfer:
    """The per-tile particle-mesh transfer: one kernel call per non-empty
    tile, each deposit into a private buffer over the tile's region grown
    by the kernel radius that is added into its fab, and each gather from
    its grid's fab."""

    @staticmethod
    def _frame_lo(geom, box_lo):
        return np.asarray(box_lo.coords, dtype=np.int64) - np.asarray(
            geom.domain.lo.coords, dtype=np.int64
        )

    @classmethod
    def _deposit_tile(cls, geom, kernel, pos, weights, buf, bufbox):
        plo = np.asarray(geom.prob_lo)
        dxinv = 1.0 / np.asarray(geom.cell_size)
        arr_lo = cls._frame_lo(geom, bufbox.lo)
        if kernel == "cic":
            deposit_cic(pos, weights, plo, dxinv, arr_lo, buf)
            return
        cells = np.floor((pos - plo) * dxinv).astype(np.int64) - arr_lo
        flat = buf.reshape(-1)
        lin = np.zeros(pos.shape[0], dtype=np.int64)
        for d in range(pos.shape[1]):
            lin = lin * buf.shape[d] + cells[:, d]
        np.add.at(flat, lin, weights)

    @classmethod
    def _gather_tile(cls, geom, kernel, pos, grid, gbox):
        plo = np.asarray(geom.prob_lo)
        dxinv = 1.0 / np.asarray(geom.cell_size)
        arr_lo = cls._frame_lo(geom, gbox.lo)
        if kernel == "cic":
            return gather_cic(pos, plo, dxinv, arr_lo, grid)
        cells = np.floor((pos - plo) * dxinv).astype(np.int64) - arr_lo
        return grid[tuple(cells[:, d] for d in range(pos.shape[1]))]

    @classmethod
    def particle_to_mesh(
        cls, pc, mesh, transport, kernel="cic", dual_grid=False, level=0, comp=0, weight=None
    ):
        radius = _KERNEL_RADIUS[kernel]
        geom = pc.geoms[level]
        if dual_grid:
            target = FabArray(pc.bas[level], pc.dms[level], 1, ngrow=radius, dtype=mesh.dtype)
            tcomp = 0
        else:
            target = mesh
            tcomp = comp
        target.setval(0.0, comp=tcomp, ghosts=True)
        for key in pc.sorted_keys():
            lev, g, t = key
            if lev != level:
                continue
            tile = pc.tiles[key]
            if tile.size == 0:
                continue
            if weight is None:
                w = np.ones(tile.size)
            else:
                w = tile.rdata[int(weight)].astype(np.float64, copy=True)
            bufbox = tile_box_of(pc.bas[level][g], pc.tile_size, t).grow(radius)
            buf = np.zeros(tuple(bufbox.extents()), dtype=target.dtype)
            cls._deposit_tile(geom, kernel, tile.aos["pos"], w, buf, bufbox)
            target.fab(g).slice(bufbox, tcomp)[...] += buf
        sum_boundary(target.component(tcomp), transport, geom.domain, geom.periodic)
        if dual_grid:
            mesh_alias = mesh.component(comp)
            mesh_alias.setval(0.0)
            parallel_copy(mesh_alias, target, transport, geom.domain, geom.periodic)

    @classmethod
    def mesh_to_particle(
        cls, pc, mesh, transport, kernel="cic", dual_grid=False, level=0, comp=0, out_comp=None
    ):
        radius = _KERNEL_RADIUS[kernel]
        geom = pc.geoms[level]
        if dual_grid:
            src = FabArray(pc.bas[level], pc.dms[level], 1, ngrow=max(radius, 1), dtype=mesh.dtype)
            parallel_copy(src, mesh.component(comp), transport, geom.domain, geom.periodic)
            scomp = 0
        else:
            src = mesh
            scomp = comp
        fill_boundary(src.component(scomp), transport, geom.domain, geom.periodic)
        out = {}
        for key in pc.sorted_keys():
            lev, g, t = key
            if lev != level:
                continue
            tile = pc.tiles[key]
            if tile.size == 0:
                continue
            fab = src.fab(g)
            vals = cls._gather_tile(geom, kernel, tile.aos["pos"], fab.data[scomp], fab.gbox)
            out[key] = vals
            if out_comp is not None:
                tile.rdata[int(out_comp)] = vals
        return out


def _transfer_case(rng, dim, nranks):
    """A one- or two-level container, sometimes empty, with uneven and
    empty tiles, extras (weights with mixed signs and zeros of both signs,
    gather output), and a random choice of level, ghost width and
    component."""
    nlevels = int(rng.integers(1, 3))
    periodic = bool(rng.integers(2))
    geoms, bas, dms = _random_layouts(rng, dim, nlevels, nranks, periodic)
    tile = int(rng.integers(2, 5))
    pc = ParticleContainer(geoms, bas, dms, nreal=2, tile_size=tile)
    npart = int(rng.integers(20, 200)) if rng.random() < 0.9 else 0
    w = rng.standard_normal(npart)
    w[rng.random(npart) < 0.1] = -0.0
    w[rng.random(npart) < 0.1] = 0.0
    pc.add_particles(
        rng.random((npart, dim)),
        rdata=np.stack([w, np.zeros(npart)]),
        ids=np.arange(1, npart + 1, dtype=np.int64),
    )
    case = {
        "level": int(rng.integers(nlevels)),
        "comp": int(rng.integers(3)),
        "weight": None if rng.integers(2) else 0,
        "ngrow": int(rng.integers(1, 3)),
    }
    return pc, case


def _transfer_meshes(rng, pc, case, dual_grid):
    """Two equal meshes with arbitrary starting values: on the particle
    layout, or for dual_grid on another cover of the same region."""
    ba = pc.bas[case["level"]]
    if dual_grid:
        b = ba.bounds()
        region = Box(IntVect(b[:, 0].min(axis=0).tolist()), IntVect(b[:, 1].max(axis=0).tolist()))
        ba = random_cover(rng, region, nsplits=int(rng.integers(1, 6)))
        dm = sfc_distribute(ba, default_costs(ba), pc.nranks)
    else:
        dm = pc.dms[case["level"]]
    meshes = [FabArray(ba, dm, 3, case["ngrow"]) for _ in range(2)]
    meshes[0].arena[...] = meshes[1].arena[...] = rng.standard_normal(meshes[0].arena.shape)
    return meshes


def test_transfer_matches_tile_loop_reference(rng):
    seen = set()
    for nranks in (1, 2, 4, 8):
        for dim in (1, 2, 3):
            for kernel in ("cic", "ngp"):
                for dual_grid in (False, True):
                    pc, case = _transfer_case(rng, dim, nranks)
                    level = case["level"]
                    on_level = [k for k in pc.sorted_keys() if k[0] == level]
                    got, want = _transfer_meshes(rng, pc, case, dual_grid)
                    kw = dict(kernel=kernel, dual_grid=dual_grid, level=level, comp=case["comp"])
                    gt = _traffic(
                        particle_to_mesh, pc, got, Transport(nranks), weight=case["weight"], **kw
                    )
                    wt = _traffic(
                        TileLoopTransfer.particle_to_mesh,
                        pc, want, Transport(nranks), weight=case["weight"], **kw
                    )
                    assert got.arena.tobytes() == want.arena.tobytes()
                    assert gt == wt
                    # gather from arbitrary values, ghosts included
                    got.arena[...] = want.arena[...] = rng.standard_normal(got.arena.shape)
                    vg = mesh_to_particle(pc, got, Transport(nranks), out_comp=1, **kw)
                    rows = {k: pc.tiles[k].rdata[1].tobytes() for k in pc.sorted_keys()}
                    for k in on_level:
                        pc.tiles[k].rdata[1] = np.nan
                    vw = TileLoopTransfer.mesh_to_particle(
                        pc, want, Transport(nranks), out_comp=1, **kw
                    )
                    assert list(vg) == list(vw)
                    for key in vw:
                        assert vg[key].tobytes() == vw[key].tobytes()
                    assert rows == {k: pc.tiles[k].rdata[1].tobytes() for k in pc.sorted_keys()}
                    assert got.arena.tobytes() == want.arena.tobytes()
                    tiles, _ = pc.tile_layout(level)
                    ext = tiles.bounds()[:, 1] - tiles.bounds()[:, 0] + 1
                    seen |= {
                        ("weight", case["weight"]),
                        ("ngrow", case["ngrow"]),
                        ("comp", case["comp"] > 0),
                        ("level", level),
                        ("empty tiles", len(vw) < len(tiles)),
                        ("uneven tiles", bool((ext != pc.tile_size[0]).any())),
                        ("gathered", bool(on_level)),
                    }
    assert seen == {
        ("weight", None), ("weight", 0), ("ngrow", 1), ("ngrow", 2),
        ("comp", False), ("comp", True), ("level", 0), ("level", 1),
        ("empty tiles", False), ("empty tiles", True),
        ("uneven tiles", False), ("uneven tiles", True),
        ("gathered", False), ("gathered", True),
    }


def test_transfer_calls_each_kernel_once_per_level(monkeypatch):
    # the particle-pic layout: 8 grids of 16^3 in 8^3 tiles, 4 ranks
    domain = Box(IntVect.zero(3), IntVect(31, 31, 31))
    geom = Geometry(domain, (0.0,) * 3, (1.0,) * 3, True)
    ba = BoxArray([domain]).max_size(16)
    dm = sfc_distribute(ba, default_costs(ba), 4)
    pc = ParticleContainer([geom], [ba], [dm], tile_size=8)
    pc.add_particles(
        np.random.default_rng(1).random((4096, 3)),
        ids=np.arange(1, 4097, dtype=np.int64),
    )
    redistribute(pc, Transport(4))
    assert len(pc.tiles) == 64
    calls = {"deposit_cic": 0, "gather_cic": 0, "neighbor_pairs": 0}
    for name in calls:
        fn = getattr(kernels, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(kernels, name, counted)
    mesh = FabArray(ba, dm, 1, 1)
    particle_to_mesh(pc, mesh, Transport(4))
    assert calls == {"deposit_cic": 1, "gather_cic": 0, "neighbor_pairs": 0}
    mesh_to_particle(pc, mesh, Transport(4))
    assert calls == {"deposit_cic": 1, "gather_cic": 1, "neighbor_pairs": 0}
    # and the neighbour list of all 64 tiles is one pair search
    nl = build_neighbor_list(pc, fill_neighbors(pc, 1, Transport(4)), geom.cell_size[0])
    assert len(nl.tiles) == 64
    assert calls == {"deposit_cic": 1, "gather_cic": 1, "neighbor_pairs": 1}


def test_layout_cache_entries_go_with_their_layout():
    cache = _LayoutCache()
    ba = BoxArray([Box(IntVect(0, 0), IntVect(3, 3))])
    other = BoxArray([Box(IntVect(0, 0), IntVect(3, 3))])
    cache.cached((0, ba.uid), ba, lambda: "a")
    cache.cached((0, other.uid), other, lambda: "b")
    assert cache.cached((0, ba.uid), ba, lambda: "rebuilt") == "a"
    del ba
    gc.collect()
    assert cache == {(0, other.uid): "b"}


def test_keyed_uniforms_order_independent():
    ids = np.array([5, 9, 2], dtype=np.int64)
    a = keyed_uniforms(11, 3, ids, ncomp=2)
    b = keyed_uniforms(11, 3, ids[::-1].copy(), ncomp=2)
    assert np.array_equal(a, b[::-1])
    c = keyed_uniforms(12, 3, ids, ncomp=2)
    assert not np.array_equal(a, c)
    assert (a >= 0).all() and (a < 1).all()
