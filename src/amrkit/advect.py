"""Two-level conservative advection: the end-to-end driver exercising the
hierarchy, ghost exchange, subcycling, restriction and refluxing together.

First-order upwind fluxes with a constant velocity field on a periodic
domain.  The fine level advances ref_ratio substeps per coarse step; after
each coarse step the fine solution is averaged down and the flux register
corrects coarse cells bordering the fine level, which keeps the global
volume-weighted sum conserved to round-off.  Refluxing can be disabled to
demonstrate the conservation error it repairs.
"""

from __future__ import annotations

import numpy as np

from . import coarse_fine
from .amr_core import AmrHierarchy, Geometry, GridGenParams
from .coarse_fine import FluxRegister, average_down, face_layout, fill_patch, snapshot_valid
from .fabarray import FabArray, fill_boundary
from .index_space import Box, IntVect
from .transport import Transport


def _box_fluxes(fab, vel):
    """Per-dimension upwind face fluxes for one box with 1 filled ghost."""
    dim = fab.box.dim
    ext = fab.box.extents()
    base = fab.data
    out = []
    for d in range(dim):
        u = float(vel[d])
        src = slice(0, ext[d] + 1) if u >= 0.0 else slice(1, ext[d] + 2)
        idx = tuple(
            src if k == d else slice(1, ext[k] + 1) for k in range(dim)
        )
        out.append(u * base[(slice(None),) + idx])
    return out


def _flux_fabarrays(fa, fluxes):
    """Per-box face fluxes of fa as one face-typed FabArray per dimension,
    distributed like fa, the form FluxRegister.crse_add reads."""
    out = []
    for d in range(fa.dim):
        ffa = FabArray(face_layout(fa.ba, d), fa.dm, fa.ncomp)
        for i, fl in enumerate(fluxes):
            ffa.fab(i).data[...] = fl[d]
        out.append(ffa)
    return out


def _apply_fluxes(fab, fluxes, dt_over_dx):
    dim = fab.box.dim
    v = fab.valid()
    for d in range(dim):
        f = fluxes[d]
        hi = tuple(slice(1, None) if k == d else slice(None) for k in range(dim))
        lo = tuple(slice(0, -1) if k == d else slice(None) for k in range(dim))
        v -= dt_over_dx[d] * (f[(slice(None),) + hi] - f[(slice(None),) + lo])


class AdvectionSolver:
    """Owns a two-level hierarchy and one advected scalar field."""

    def __init__(
        self,
        geom0,
        params,
        velocity,
        nranks=1,
        cfl=0.45,
        tag_threshold=0.5,
        profile="square",
        use_reflux=True,
        regrid_interval=0,
    ):
        self.params = params
        self.velocity = tuple(float(v) for v in velocity)
        self.cfl = float(cfl)
        self.tag_threshold = float(tag_threshold)
        self.use_reflux = use_reflux
        self.regrid_interval = int(regrid_interval)
        self.transport = Transport(nranks)
        self.hier = AmrHierarchy(geom0, params, nranks)
        self.hier.define_field("phi", ncomp=1, ngrow=1)
        self.time = 0.0
        self.step_count = 0
        self._profile = profile
        self._init_level(0)
        self.hier.regrid(0, self._tag_fn, self.transport)
        for lev in range(1, self.hier.finest_level + 1):
            self._init_level(lev)
        self.fluxreg = self._make_fluxreg()

    # -- setup ---------------------------------------------------------------

    def _initial_value(self, x):
        center = tuple(
            0.5 * (l + h) for l, h in zip(self.hier.geom(0).prob_lo, self.hier.geom(0).prob_hi)
        )
        r2 = sum((x[d] - center[d]) ** 2 for d in range(len(x)))
        if self._profile == "gaussian":
            return float(np.exp(-r2 / 0.02))
        return 1.0 if r2 <= 0.04 else 0.0

    def _init_level(self, lev):
        fa = self.hier.field("phi", lev)
        geom = self.hier.geom(lev)
        for i in range(len(fa.ba)):
            arr = fa.fab(i).valid(0)
            b = fa.ba[i]
            for c in b.cells():
                idx = tuple(c[d] - b.lo[d] for d in range(fa.dim))
                arr[idx] = self._initial_value(geom.cell_center(IntVect(c)))

    def _tag_fn(self, lev, hier):
        fa = hier.field("phi", lev)
        tags = []
        for i in range(len(fa.ba)):
            arr = fa.fab(i).valid(0)
            lo = fa.ba[i].lo
            for idx in np.argwhere(np.abs(arr) >= self.tag_threshold):
                tags.append(IntVect(int(idx[d]) + lo[d] for d in range(fa.dim)))
        return tags

    def _make_fluxreg(self):
        if self.hier.finest_level < 1:
            return None
        return FluxRegister(
            self.hier.ba(1), self.hier.dm(1), self.params.ref_ratio[0], ncomp=1
        )

    # -- stepping --------------------------------------------------------------

    def dt_coarse(self):
        geom = self.hier.geom(0)
        speed = sum(
            abs(self.velocity[d]) / geom.cell_size[d] for d in range(self.hier.dim)
        )
        return self.cfl / speed if speed > 0 else 1.0

    def step(self):
        """One coarse step: coarse advance, subcycled fine advance,
        average down, reflux."""
        hier = self.hier
        dim = hier.dim
        dt = self.dt_coarse()
        geom_c = hier.geom(0)
        phi_c = hier.field("phi", 0)
        crse_old = snapshot_valid(phi_c)
        dto_dx_c = [dt / geom_c.cell_size[d] for d in range(dim)]

        fill_boundary(phi_c, self.transport, geom_c.domain, geom_c.periodic)
        crse_fluxes = [
            _box_fluxes(phi_c.fab(i), self.velocity) for i in range(len(phi_c.ba))
        ]
        for i in range(len(phi_c.ba)):
            _apply_fluxes(phi_c.fab(i), crse_fluxes[i], dto_dx_c)

        if hier.finest_level >= 1:
            if self.fluxreg is not None:
                self.fluxreg.zero()
                self.fluxreg.crse_add(
                    _flux_fabarrays(phi_c, crse_fluxes),
                    self.transport,
                    geom_c.domain,
                    scale=1.0,
                )
            ratio = self.params.ref_ratio[0]
            nsub = max(ratio)
            geom_f = hier.geom(1)
            phi_f = hier.field("phi", 1)
            dt_f = dt / nsub
            dto_dx_f = [dt_f / geom_f.cell_size[d] for d in range(dim)]
            for m in range(nsub):
                fill_patch(
                    phi_f,
                    crse_old,
                    phi_c,
                    time_weight=m / nsub,
                    ratio=ratio,
                    transport=self.transport,
                    domain=geom_f.domain,
                    periodic=geom_f.periodic,
                    kind="linear",
                )
                for k in range(len(phi_f.ba)):
                    fl = _box_fluxes(phi_f.fab(k), self.velocity)
                    _apply_fluxes(phi_f.fab(k), fl, dto_dx_f)
                    if self.fluxreg is not None:
                        self.fluxreg.fine_add(k, fl, scale=1.0 / nsub)
            average_down(phi_f, phi_c, ratio, self.transport)
            if self.use_reflux and self.fluxreg is not None:
                self.fluxreg.reflux(
                    phi_c, self.transport, dto_dx_c, geom_c.domain, geom_c.periodic
                )
        self.time += dt
        self.step_count += 1
        if self.regrid_interval and self.step_count % self.regrid_interval == 0:
            self.regrid()
        return dt

    def regrid(self):
        if self.hier.finest_level >= 1:
            average_down(
                self.hier.field("phi", 1),
                self.hier.field("phi", 0),
                self.params.ref_ratio[0],
                self.transport,
            )
        self.hier.regrid(0, self._tag_fn, self.transport)
        self.fluxreg = self._make_fluxreg()

    # -- diagnostics -----------------------------------------------------------

    def total_mass(self):
        """Volume-weighted sum over the composite grid: uncovered coarse
        cells plus all fine cells."""
        hier = self.hier
        total = 0.0
        for lev in range(hier.finest_level + 1):
            geom = hier.geom(lev)
            vol = float(np.prod(geom.cell_size))
            fa = hier.field("phi", lev)
            # each box's overlaps with the next level's coarsened boxes,
            # ascending cover index, as slices of the box's data
            q = np.zeros(0, dtype=np.int64)
            if lev < hier.finest_level:
                cover = coarse_fine.coarsened_layout(
                    hier.ba(lev + 1), self.params.ref_ratio[lev]
                )
                q, _, lo, hi = cover.intersections(fa.ba.bounds())
                lo, hi = (lo - fa.glo[q]).tolist(), (hi - fa.glo[q]).tolist()
            ends = np.searchsorted(q, np.arange(len(fa.ba) + 1)).tolist()
            lev_sum = 0.0
            for i in range(len(fa.ba)):
                data = fa.fab(i).data[0]
                lev_sum += float(fa.fab(i).valid(0).sum())
                for k in range(ends[i], ends[i + 1]):
                    idx = tuple(slice(a, b + 1) for a, b in zip(lo[k], hi[k]))
                    lev_sum -= float(data[idx].sum())
            total += vol * lev_sum
        return total


def save_solver_checkpoint(solver, path, mode=None):
    """Checkpoint between coarse steps: grids, rank owners, valid phi, and
    every scalar the solver needs to resume; ghosts are refilled each step."""
    from . import plotfile

    hier = solver.hier
    nlev = hier.finest_level + 1
    meshes = [hier.field("phi", lev) for lev in range(nlev)]
    geoms = [hier.geom(lev) for lev in range(nlev)]
    header = plotfile.PlotfileHeader(solver.time, ["phi"], geoms)
    p = solver.params
    blob = repr(
        {
            "velocity": solver.velocity,
            "cfl": solver.cfl,
            "tag_threshold": solver.tag_threshold,
            "use_reflux": solver.use_reflux,
            "regrid_interval": solver.regrid_interval,
            "profile": solver._profile,
            "params": {
                "dim": p.dim,
                "max_level": p.max_level,
                "max_grid_size": p.max_grid_size.coords,
                "blocking_factor": p.blocking_factor.coords,
                "grid_efficiency": p.grid_efficiency,
                "ref_ratio": [r.coords for r in p.ref_ratio],
                "n_error_buf": p.n_error_buf,
                "nesting_buffer": p.nesting_buffer,
            },
        }
    ).encode()
    plotfile.write_checkpoint(
        path,
        meshes,
        header,
        solver.step_count,
        user_blob=blob,
        mode=mode,
        transport=solver.transport,
    )


def load_solver_checkpoint(path, nranks=None):
    """Rebuild a solver that continues the checkpointed run bit for bit.

    With the stored rank count the saved owners are reused; with a different
    one the grids are redistributed, which leaves field values unchanged
    because collectives are rank-count independent.
    """
    import ast

    from . import plotfile
    from .amr_core import _LevelState
    from .distribution import DistributionMapping

    data = plotfile.read_checkpoint(path)
    meta = ast.literal_eval(data["blob"].decode())
    params = GridGenParams(**meta["params"])
    header = data["header"]
    if nranks is None:
        nranks = data["nranks"]
    solver = AdvectionSolver(
        header.geoms[0],
        params,
        meta["velocity"],
        nranks=nranks,
        cfl=meta["cfl"],
        tag_threshold=meta["tag_threshold"],
        profile=meta["profile"],
        use_reflux=meta["use_reflux"],
        regrid_interval=meta["regrid_interval"],
    )
    hier = solver.hier
    levels = []
    for lev, src in enumerate(data["meshes"]):
        if nranks == data["nranks"]:
            dm = DistributionMapping(data["owners"][lev], nranks)
        else:
            dm = hier.distribute(src.ba, nranks)
        levels.append(_LevelState(header.geoms[lev], src.ba, dm))
    hier.levels = levels
    for rec in hier.fields.values():
        rec["data"] = [
            FabArray(l.ba, l.dm, rec["ncomp"], rec["ngrow"], rec["dtype"])
            for l in hier.levels
        ]
    for lev, src in enumerate(data["meshes"]):
        dst = hier.field("phi", lev)
        for i in range(len(dst.ba)):
            dst.fab(i).valid()[...] = src.fab(i).valid()
    solver.time = data["time"]
    solver.step_count = data["step"]
    solver.fluxreg = solver._make_fluxreg()
    return solver


def solver_from_config(cfg, nranks=1, use_reflux=True):
    dim = cfg.get_int("adv.dim", 2)
    n = cfg.get_int("adv.ncells", 32)
    params = GridGenParams.from_config(cfg, dim)
    domain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, periodic=True)
    vel = cfg.get_float_list("adv.velocity", [1.0] + [0.5] * (dim - 1))
    return AdvectionSolver(
        geom,
        params,
        vel,
        nranks=nranks,
        cfl=cfg.get_float("adv.cfl", 0.45),
        tag_threshold=cfg.get_float("adv.tag_threshold", 0.5),
        profile=cfg.get_str("adv.profile", "square"),
        use_reflux=use_reflux,
        regrid_interval=cfg.get_int("adv.regrid_interval", 0),
    )
