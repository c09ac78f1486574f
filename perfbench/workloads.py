"""The four benchmark workloads.

Each workload is a closed loop: one process starts a step only after
the previous one has finished.  Inputs come from the workload seed alone and
every call goes through amrkit's public API, looked up on the module at call
time so that traced runs see it.  A workload exposes:

- ``setup()``: build the program state from the seeded inputs;
- ``step()``: the plain unit of work timed for ``step_ms_*``;
- ``rebuild()``: the heavier operation run every ``rebuild_every`` steps,
  after the untimed ``before_rebuild()``;
- ``after(i)``: untimed checks after step ``i`` and any rebuild that followed;
- ``digest()`` and ``reference()``: output digests after ``digest_step``
  steps, from the timed run and from an untimed 1-rank run of the same seed;
- ``finish()``: checks that need the whole run;
- ``work``: the throughput count of everything done so far.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import amrkit
import amrkit.advect
import amrkit.eb
import amrkit.fabarray
from amrkit import counters


class Checks:
    """Counts correctness checks; a failed check keeps a short description."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self):
        return len(self.failures)


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _cube(n, dim):
    return amrkit.Box(amrkit.IntVect.zero(dim), amrkit.IntVect((n - 1,) * dim))


def _sfc(ba, nranks):
    return amrkit.sfc_distribute(ba, [b.num_cells() for b in ba], nranks)


def _fab_digest(fa, domain):
    """Digest of the layout and of every component's valid data over domain."""
    boxes = repr([(b.lo.coords, b.hi.coords) for b in fa.ba]).encode()
    comps = [
        amrkit.fabarray.gather_global(fa, domain, comp=c) for c in range(fa.ncomp)
    ]
    return _sha(boxes, *comps)


class Workload:
    name = ""
    throughput_name = ""  # the workload's own name for its throughput
    rebuild_every = 0
    digest_step = 1
    rss_step = 1  # the peak resident set is read after this many steps
    trace_steps_per_s = 1.0  # traced runs do round(seconds * this) steps
    nranks = 4

    def __init__(self, seed, checks, workdir):
        self.seed = int(seed)
        self.checks = checks
        self.workdir = workdir
        self.work = 0
        self.stats = {}  # per-layer quantities summed over the run

    def count(self, name, amount):
        self.stats[name] = self.stats.get(name, 0) + amount

    def sample_layout(self):
        eff = self.layout_efficiency()
        if eff is not None:
            self.count("load_efficiency", eff)
            self.count("layouts", 1)

    def setup(self):
        raise NotImplementedError

    def step(self):
        raise NotImplementedError

    def before_rebuild(self):
        pass

    def rebuild(self):
        pass

    def after(self, i):
        pass

    def finish(self):
        pass

    def digest(self):
        raise NotImplementedError

    def reference(self):
        raise NotImplementedError

    def layout_efficiency(self):
        """Load efficiency of the current distributed layout, or None."""
        return None

    def extra_metrics(self):
        """Workload-specific figures for the full record: {name: (value, unit)}."""
        return {}


# ---------------------------------------------------------------------------
# amr-advect
# ---------------------------------------------------------------------------


class AmrAdvect(Workload):
    name = "amr-advect"
    throughput_name = "cell_updates_per_s"
    rebuild_every = 4
    digest_step = 8
    rss_step = 64
    trace_steps_per_s = 2.0

    def _solver(self, nranks):
        theta = np.random.default_rng(self.seed).uniform(0.0, 2.0 * math.pi)
        params = amrkit.GridGenParams(
            dim=2, max_level=1, max_grid_size=16, blocking_factor=4, ref_ratio=2
        )
        geom = amrkit.Geometry(_cube(64, 2), (0.0, 0.0), (1.0, 1.0), periodic=True)
        return amrkit.advect.AdvectionSolver(
            geom,
            params,
            (math.cos(theta), math.sin(theta)),
            nranks=nranks,
            use_reflux=True,
            regrid_interval=0,
        )

    def setup(self):
        self.solver = self._solver(self.nranks)
        self.mass0 = self.solver.total_mass()

    def _cells(self, solver):
        hier = solver.hier
        cells = hier.ba(0).num_cells()
        if hier.finest_level >= 1:
            nsub = max(solver.params.ref_ratio[0].coords)
            cells += nsub * hier.ba(1).num_cells()
        return cells

    def step(self):
        self.work += self._cells(self.solver)
        self.solver.step()
        hier = self.solver.hier
        if hier.finest_level >= 1:
            self.count("fine_boxes", len(hier.ba(1)))
            self.count("fine_cells", hier.ba(1).num_cells())

    def rebuild(self):
        self.solver.regrid()

    def after(self, i):
        if i % self.rebuild_every == 0:
            self.sample_layout()
            drift = abs(self.solver.total_mass() - self.mass0) / abs(self.mass0)
            self.checks.expect(drift <= 1e-12, f"mass drift {drift:.3e} after step {i}")

    def _digest_of(self, solver):
        hier = solver.hier
        return {
            "phi": _sha(
                *[
                    _fab_digest(hier.field("phi", lev), hier.geom(lev).domain).encode()
                    for lev in range(hier.finest_level + 1)
                ]
            )
        }

    def digest(self):
        return self._digest_of(self.solver)

    def reference(self):
        solver = self._solver(1)
        for i in range(1, self.digest_step + 1):
            solver.step()
            if i % self.rebuild_every == 0:
                solver.regrid()
        return self._digest_of(solver)

    def layout_efficiency(self):
        hier = self.solver.hier
        lev = hier.finest_level
        ba = hier.ba(lev)
        return amrkit.load_stats(hier.dm(lev), [b.num_cells() for b in ba])["efficiency"]


# ---------------------------------------------------------------------------
# particle-pic
# ---------------------------------------------------------------------------


def _particle_digest(pc):
    ids, pos = [], []
    for key in pc.sorted_keys():
        t = pc.tiles[key]
        ids.append(t.aos["id"])
        pos.append(t.aos["pos"])
    ids = np.concatenate(ids)
    pos = np.concatenate(pos)
    order = np.argsort(ids, kind="stable")
    return _sha(ids[order], pos[order])


class ParticlePic(Workload):
    name = "particle-pic"
    throughput_name = "particle_steps_per_s"
    rebuild_every = 40
    digest_step = 8
    rss_step = 40
    trace_steps_per_s = 2.0
    ncells = 32
    nparticles = 4096

    def _build(self, nranks):
        n = self.ncells
        geom = amrkit.Geometry(_cube(n, 3), (0.0,) * 3, (1.0,) * 3, periodic=True)
        ba = amrkit.BoxArray([geom.domain]).max_size(16)
        dm = _sfc(ba, nranks)
        transport = amrkit.Transport(nranks)
        pc = amrkit.ParticleContainer([geom], [ba], [dm], tile_size=8)
        rng = np.random.default_rng(self.seed)
        ids = np.arange(1, self.nparticles + 1, dtype=np.int64)
        pc.add_particles(rng.random((self.nparticles, 3)), ids=ids)
        amrkit.redistribute(pc, transport)
        mesh = amrkit.FabArray(ba, dm, 1, 1)
        # warm-up: the deposit and gather plans are built here, once
        amrkit.particle_to_mesh(pc, mesh, transport)
        amrkit.mesh_to_particle(pc, mesh, transport)
        return {"geom": geom, "ba": ba, "dm": dm, "transport": transport,
                "pc": pc, "mesh": mesh, "ids": ids, "nstep": 0}

    def setup(self):
        self.s = self._build(self.nranks)
        self.dx = self.s["geom"].cell_size[0]
        self.first_pairs = None
        self.stats["particles"] = self.nparticles

    def _advance(self, s):
        u = amrkit.keyed_uniforms(self.seed, s["nstep"], s["ids"], ncomp=3)
        delta = (2.0 * u - 1.0) * self.dx
        pc = s["pc"]
        for key in pc.sorted_keys():
            t = pc.tiles[key]
            if t.size:
                t.aos["pos"] += delta[t.aos["id"] - 1]
        amrkit.redistribute(pc, s["transport"])
        amrkit.particle_to_mesh(pc, s["mesh"], s["transport"])
        amrkit.mesh_to_particle(pc, s["mesh"], s["transport"])
        s["nstep"] += 1

    def step(self):
        self._advance(self.s)
        self.work += self.nparticles

    def rebuild(self):
        s = self.s
        halo = amrkit.fill_neighbors(s["pc"], 1, s["transport"])
        self.nlist = amrkit.build_neighbor_list(s["pc"], halo, self.dx)

    def _deposit_sum(self, s):
        mesh = s["mesh"]
        return sum(float(mesh.fab(i).valid().sum()) for i in range(len(mesh.ba)))

    def after(self, i):
        s = self.s
        n = s["pc"].total_valid()
        self.checks.expect(n == self.nparticles, f"particle count {n} after step {i}")
        dep = self._deposit_sum(s)
        self.checks.expect(
            abs(dep - self.nparticles) <= 1e-9 * self.nparticles,
            f"deposit sum {dep!r} after step {i}",
        )
        if i % self.rebuild_every == 0:
            self.sample_layout()
            pairs = self.nlist.id_pairs()
            self.count("pairs", len(pairs))
            self.checks.expect(len(pairs) > 0, f"empty neighbour list after step {i}")
            if self.first_pairs is None:
                self.first_pairs = (pairs, s["pc"].id_positions())

    def finish(self):
        if self.first_pairs is None:
            return
        pairs, positions = self.first_pairs
        want = _brute_force_pairs(positions, self.dx)
        self.checks.expect(
            pairs == want,
            f"neighbour list has {len(pairs)} pairs, brute force finds {len(want)}",
        )

    def _digest_of(self, s):
        return {
            "particles": _particle_digest(s["pc"]),
            "deposit": _fab_digest(s["mesh"], s["geom"].domain),
        }

    def digest(self):
        return self._digest_of(self.s)

    def reference(self):
        s = self._build(1)
        for _ in range(self.digest_step):
            self._advance(s)
        return self._digest_of(s)

    def layout_efficiency(self):
        ba = self.s["ba"]
        return amrkit.load_stats(self.s["dm"], [b.num_cells() for b in ba])["efficiency"]


def _brute_force_pairs(positions, cutoff, length=1.0, chunk=512):
    """Id pairs within cutoff under the minimum periodic image, all pairs tried."""
    ids = np.array(sorted(positions), dtype=np.int64)
    pos = np.array([positions[i] for i in ids])
    out = set()
    c2 = cutoff * cutoff
    for a in range(0, len(ids), chunk):
        d2 = np.zeros((min(chunk, len(ids) - a), len(ids)))
        for d in range(pos.shape[1]):
            diff = np.stack(
                [pos[a : a + chunk, d, None] - (pos[None, :, d] + s) for s in (-length, 0.0, length)]
            )
            d2 += (diff**2).min(axis=0)
        ii, jj = np.nonzero(d2 <= c2)
        for i, j in zip(ii + a, jj):
            if i < j:
                out.add((int(ids[i]), int(ids[j])))
    return out


# ---------------------------------------------------------------------------
# eb-geometry
# ---------------------------------------------------------------------------


def _csg_text(rng):
    """A seeded body with the listing body's structure, so costs match."""
    c = tuple(round(float(x), 3) for x in rng.uniform(-0.15, 0.15, 3))
    r = round(float(rng.uniform(0.45, 0.6)), 3)
    h = round(float(rng.uniform(0.32, 0.45)), 3)
    bore = round(float(rng.uniform(0.15, 0.28)), 3)
    lo = tuple(round(x - h, 3) for x in c)
    hi = tuple(round(x + h, 3) for x in c)
    return (
        f"difference(intersection(sphere({r}, {c}), box({lo}, {hi})), "
        f"union(cylinder({bore}, 0, {c}), cylinder({bore}, 1, {c}), "
        f"cylinder({bore}, 2, {c})))"
    )


class EbGeometry(Workload):
    name = "eb-geometry"
    throughput_name = "eb_cells_per_s"
    rebuild_every = 1
    digest_step = 1
    rss_step = 2
    trace_steps_per_s = 0.25
    ncells = 32
    threshold = 0.5

    def setup(self):
        self.geom = amrkit.Geometry(_cube(self.ncells, 3), (-1.0,) * 3, (1.0,) * 3)
        self.ba = amrkit.BoxArray([self.geom.domain]).max_size(16)
        self.dm = _sfc(self.ba, self.nranks)
        rng = np.random.default_rng(self.seed)
        self.texts = [_csg_text(rng) for _ in range(64)]
        self.nbody = 0

    def _body(self, k):
        # even bodies are the listing body, odd ones seeded CSG text
        if k % 2 == 0:
            return amrkit.eb.listing_csg()
        return amrkit.eb.parse_csg(self.texts[(k // 2) % len(self.texts)])

    def step(self):
        self.f = self._body(self.nbody)
        self.data = amrkit.eb.compute_moments(
            self.f, self.geom, self.ba, subsamples=4, dm=self.dm
        )
        self.nbody += 1
        self.work += self.geom.domain.num_cells()

    def _update(self):
        rng = np.random.default_rng([self.seed, self.nbody])
        upd = amrkit.FabArray(self.ba, self.dm, 1, 0)
        for i in range(len(self.ba)):
            v = upd.fab(i).valid()
            v[...] = rng.random(v.shape)
        return upd

    def rebuild(self):
        f, geom, ba = self.f, self.geom, self.ba
        self.pruned = ba.prune(amrkit.eb.covered_box_predicate(f, geom))
        self.levelset = amrkit.eb.build_level_set(f, geom, ba, dm=self.dm)
        amrkit.eb.redistribute_small_cells(self.update, self.data, self.threshold)

    def _mass(self, upd):
        data = self.data
        return [
            (data.volfrac.fab(i).valid(0) * upd.fab(i).valid(0)) for i in range(len(self.ba))
        ]

    def before_rebuild(self):
        self.update = self._update()
        parts = self._mass(self.update)
        self.mass_before = sum(float(p.sum()) for p in parts)
        self.mass_scale = sum(float(np.abs(p).sum()) for p in parts)

    def after(self, i):
        data, ba = self.data, self.ba
        ck = self.checks
        cut = 0
        kept = {(b.lo.coords, b.hi.coords) for b in self.pruned}
        # cut cells that compute_moments re-flagged by majority vote keep
        # corners of both signs, so they are left out of the corner checks
        voted = {}
        for g, cell, _ in data.diagnostics:
            voted.setdefault(g, []).append(tuple(c - lo for c, lo in zip(cell, ba[g].lo)))
        for g in range(len(ba)):
            flags = data.flags.fab(g).valid(0)
            vol = data.volfrac.fab(g).valid(0)
            cut += int((flags == amrkit.eb.CUT).sum())
            ck.expect(
                bool(((vol >= 0.0) & (vol <= 1.0)).all()), f"volfrac outside [0, 1] in box {g}"
            )
            b = ba[g]
            covered = bool((flags == amrkit.eb.COVERED).all()) and g not in voted
            ck.expect(
                covered != ((b.lo.coords, b.hi.coords) in kept),
                f"prune disagrees with the flags of box {g}",
            )
            # regular cells have only fluid corners in the level set, covered
            # cells only body corners
            nodes = self.levelset.fa.fab(g).valid(0)
            corners = [
                nodes[tuple(slice(c, c + e) for c, e in zip(off, flags.shape))]
                for off in np.ndindex(2, 2, 2)
            ]
            cmax = np.maximum.reduce(corners)
            cmin = np.minimum.reduce(corners)
            plain = np.ones(flags.shape, dtype=bool)
            for cell in voted.get(g, ()):
                plain[cell] = False
            reg = plain & (flags == amrkit.eb.REGULAR)
            cov = plain & (flags == amrkit.eb.COVERED)
            ck.expect(
                bool((cmax[reg] < 0.0).all() and (cmin[cov] > 0.0).all()),
                f"level set disagrees with the cell flags in box {g}",
            )
        self.count("cut_cells", cut)
        ck.expect(cut > 0, f"body {i} has no cut cells")
        after = sum(float(p.sum()) for p in self._mass(self.update))
        ck.expect(
            abs(after - self.mass_before) <= 1e-12 * max(self.mass_scale, 1.0),
            f"small-cell redistribution changed the mass by {after - self.mass_before:.3e}",
        )

    def _digest_of(self, data):
        dom = self.geom.domain
        parts = []
        for name in ("flags", "volfrac", "centroid", "eb_area", "eb_normal"):
            fa = getattr(data, name)
            parts.extend(
                amrkit.fabarray.gather_global(fa, dom, comp=c) for c in range(fa.ncomp)
            )
        return {"moments": _sha(*parts)}

    def digest(self):
        return self._digest_of(self.data)

    def reference(self):
        # the first body again, as one box on one rank
        ba = amrkit.BoxArray([self.geom.domain])
        data = amrkit.eb.compute_moments(self._body(0), self.geom, ba, subsamples=4)
        return self._digest_of(data)


# ---------------------------------------------------------------------------
# plotfile-io
# ---------------------------------------------------------------------------


def _particle_table(records):
    """(ids, pos, rdata) over (ids, origin, pos, rdata, idata) records, id-sorted."""
    records = list(records)
    ids = np.concatenate([r[0] for r in records])
    pos = np.concatenate([r[2] for r in records])
    rdata = np.concatenate([r[3] for r in records], axis=1)
    order = np.argsort(ids, kind="stable")
    return ids[order], pos[order], rdata[:, order]


def _file_digest(path):
    with open(os.path.join(path, "Level_0", "data.bin"), "rb") as fh:
        data = fh.read()
    with open(os.path.join(path, "Header"), "rb") as fh:
        header = fh.read()
    return _sha(header, data)


class PlotfileIo(Workload):
    name = "plotfile-io"
    throughput_name = "io_cells_per_s"
    rebuild_every = 5
    digest_step = 1
    rss_step = 5
    trace_steps_per_s = 1.0
    ncells = 64
    ncomp = 4
    nparticles = 100_000
    modes = (("static1", 1), ("static2", 2), ("async", 0))

    def _mode(self, nwriters):
        if nwriters:
            return amrkit.OutputMode.static(nwriters)
        return amrkit.OutputMode.asynchronous()

    def _layout(self, mgs, nranks, field):
        ba = amrkit.BoxArray([self.geom.domain]).max_size(mgs)
        fa = amrkit.FabArray(ba, _sfc(ba, nranks), self.ncomp, 0)
        for i in range(len(ba)):
            b = ba[i]
            sel = tuple(slice(b.lo[d], b.hi[d] + 1) for d in range(3))
            fa.fab(i).valid()[...] = field[(slice(None),) + sel]
        return fa

    def setup(self):
        n = self.ncells
        self.geom = amrkit.Geometry(_cube(n, 3), (0.0,) * 3, (1.0,) * 3, periodic=True)
        rng = np.random.default_rng(self.seed)
        self.field = rng.random((self.ncomp, n, n, n))
        self.layouts = {mgs: self._layout(mgs, self.nranks, self.field) for mgs in (16, 8)}
        self.header = amrkit.PlotfileHeader(
            0.0, [f"c{k}" for k in range(self.ncomp)], [self.geom]
        )
        fa = self.layouts[16]
        pc = amrkit.ParticleContainer([self.geom], [fa.ba], [fa.dm], nreal=1, tile_size=8)
        pc.add_particles(
            rng.random((self.nparticles, 3)), rdata=rng.random((1, self.nparticles))
        )
        self.pc = pc
        self.nround = 0
        self.write_s = 0.0
        self.read_s = 0.0
        self.written = 0  # bytes written, and as many read back
        self.file_digests = {}
        self.payload = 8 * self.ncomp * n**3

    def _path(self, *parts):
        return os.path.join(self.workdir, "-".join(str(p) for p in parts))

    def step(self):
        from time import perf_counter

        self.readback = []
        for mgs, fa in self.layouts.items():
            for tag, nw in self.modes:
                path = self._path("plt", mgs, tag)
                t0 = perf_counter()
                amrkit.write_plotfile(path, [fa], self.header, self._mode(nw)).wait()
                t1 = perf_counter()
                _, meshes = amrkit.read_plotfile(path, self.nranks)
                t2 = perf_counter()
                self.write_s += t1 - t0
                self.read_s += t2 - t1
                self.readback.append((mgs, tag, meshes[0]))
        self.nround += 1
        self.written += self.payload * len(self.readback)
        self.work += 2 * self.geom.domain.num_cells() * len(self.readback)

    def rebuild(self):
        path = self._path("chk")
        fa = self.layouts[16]
        amrkit.write_checkpoint(path, [fa], self.header, self.nround, b"perfbench", pc=self.pc)
        self.restored = amrkit.read_checkpoint(path)

    def _same(self, src, got):
        if len(src.ba) != len(got.ba):
            return False
        return all(
            src.ba[i] == got.ba[i] and np.array_equal(src.fab(i).valid(), got.fab(i).valid())
            for i in range(len(src.ba))
        )

    def after(self, i):
        ck = self.checks
        for mgs, tag, got in self.readback:
            ck.expect(self._same(self.layouts[mgs], got), f"read-back {mgs}/{tag} differs")
        self.readback = []
        if i == 1:
            for mgs in self.layouts:
                digests = {tag: _file_digest(self._path("plt", mgs, tag)) for tag, _ in self.modes}
                self.file_digests[f"plotfile_{len(self.layouts[mgs].ba)}_boxes"] = digests["static1"]
                ck.expect(
                    len(set(digests.values())) == 1,
                    f"plotfile bytes differ across output modes for {mgs}^3 boxes",
                )
        peak = counters.get("io_peak_writers")
        ck.expect(peak <= 2, f"{peak} writer threads live at once")
        if i % self.rebuild_every == 0:
            data = self.restored
            ck.expect(
                self._same(self.layouts[16], data["meshes"][0]), "checkpoint mesh differs"
            )
            got = _particle_table(data["particles"][1].values())
            want = _particle_table(
                (t.aos["id"], None, t.aos["pos"], t.rdata, None) for t in self.pc.tiles.values()
            )
            ck.expect(
                all(np.array_equal(a, b) for a, b in zip(got, want)),
                "checkpoint particles differ",
            )

    def digest(self):
        return dict(self.file_digests)

    def extra_metrics(self):
        return {
            "write_MBps": (self.written / 1e6 / self.write_s, "MB/s"),
            "read_MBps": (self.written / 1e6 / self.read_s, "MB/s"),
        }

    def reference(self):
        out = {}
        for mgs in self.layouts:
            fa = self._layout(mgs, 1, self.field)
            path = self._path("ref", mgs)
            amrkit.write_plotfile(path, [fa], self.header).wait()
            out[f"plotfile_{len(fa.ba)}_boxes"] = _file_digest(path)
        return out


WORKLOADS = {cls.name: cls for cls in (AmrAdvect, ParticlePic, EbGeometry, PlotfileIo)}
