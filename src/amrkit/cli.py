"""amrcli: the command-line driver.

Subcommands::

    advect   two-level advection demo with subcycling, refluxing, plotfiles
    pbench   particle redistribute benchmark over logical rank counts
    balance  knapsack vs space-filling-curve load-balance report
    eb       cut-cell geometry report (volume totals, pruning)
    slice    CSV + grayscale PPM image of one plane of a plotfile

Common flags: --config FILE, --nranks N, --seed S, --out DIR, plus any
number of key=value overrides (highest precedence).  A seed is mandatory,
from --seed or the config key ``seed``; every command is deterministic
given config + seed.  Exit codes: 0 ok, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import counters, eb
from .advect import solver_from_config
from .amr_core import Geometry
from .boxarray import BoxArray
from .config import Config
from .distribution import knapsack_distribute, load_stats, sfc_distribute
from .fabarray import gather_global
from .index_space import Box, IntVect
from .particles import ParticleContainer, keyed_uniforms, redistribute
from .plotfile import OutputMode, PlotfileHeader, read_plotfile, write_plotfile


class UserError(Exception):
    """Bad input from the operator: config, flags, or referenced files."""


def _fmt(x):
    """CSV cell: repr for floats keeps golden files lossless."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, headers, rows):
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_config(args):
    try:
        cfg = (
            Config.load(args.config, args.overrides)
            if args.config
            else Config()
        )
    except (OSError, ValueError) as exc:
        raise UserError(str(exc)) from exc
    if not args.config and args.overrides:
        try:
            cfg.apply_overrides(args.overrides)
        except ValueError as exc:
            raise UserError(str(exc)) from exc
    if args.seed is not None:
        seed = args.seed
    else:
        seed = cfg.get_int("seed")
        if seed is None:
            raise UserError("a seed is required: pass --seed or set seed= in the config")
    return cfg, int(seed)


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _io_mode(cfg):
    kind = cfg.get_str("io.mode", "static")
    if kind == "async":
        return OutputMode.asynchronous()
    if kind == "static":
        return OutputMode.static(cfg.get_int("io.nwriters", 1))
    raise UserError(f"io.mode must be 'static' or 'async', got {kind!r}")


# ---------------------------------------------------------------------------
# advect
# ---------------------------------------------------------------------------


def cmd_advect(args):
    cfg, _seed = _load_config(args)
    out = _outdir(args)
    if not 0.0 < cfg.get_float("adv.cfl", 0.45) <= 1.0:
        raise UserError("CFL violation: adv.cfl must lie in (0, 1]")
    solver = solver_from_config(
        cfg, nranks=args.nranks, use_reflux=cfg.get_bool("adv.reflux", True)
    )
    nsteps = cfg.get_int("adv.nsteps", 100)
    plot_interval = cfg.get_int("io.plot_interval", 0)
    mode = _io_mode(cfg)

    def dump(tag):
        hier = solver.hier
        nlev = hier.finest_level + 1
        header = PlotfileHeader(
            solver.time, ["phi"], [hier.geom(k) for k in range(nlev)]
        )
        meshes = [hier.field("phi", k) for k in range(nlev)]
        write_plotfile(os.path.join(out, tag), meshes, header, mode=mode).wait()

    initial = solver.total_mass()
    history = [(0, solver.time, initial)]
    dump("plt00000")
    for n in range(1, nsteps + 1):
        solver.step()
        history.append((n, solver.time, solver.total_mass()))
        if plot_interval and n % plot_interval == 0:
            dump(f"plt{n:05d}")
    dump(f"plt{nsteps:05d}")
    final = history[-1][2]
    drift = abs(final - initial) / max(abs(initial), 1e-300)
    _write_csv(
        os.path.join(out, "conservation.csv"),
        ["step", "time", "total"],
        history,
    )
    print(f"initial_sum {initial!r}")
    print(f"final_sum {final!r}")
    print(f"relative_drift {drift!r}")
    print(f"finest_level {solver.hier.finest_level}")
    return 0


# ---------------------------------------------------------------------------
# pbench
# ---------------------------------------------------------------------------


def _touching(ba):
    """(i, j) for every ordered pair of distinct boxes where box i grown
    by one cell meets box j: one batch intersections query."""
    b = ba.bounds()
    i, j, _, _ = ba.intersections(np.stack([b[:, 0] - 1, b[:, 1] + 1], axis=1))
    return i[i != j], j[i != j]


def _box_adjacency(ba, domain):
    """Per-box count of other boxes touching it (faces, edges, corners);
    the box itself is excluded, so a grid surrounded on every side in 3D
    reports 26 (the saturation count is 27 when counting self-inclusive).
    Also returns the mean over boxes whose 1-grown halo stays in-domain."""
    counts = np.bincount(_touching(ba)[0], minlength=len(ba))
    b = ba.bounds()
    interior = ((b[:, 0] - 1 >= domain.lo) & (b[:, 1] + 1 <= domain.hi)).all(axis=1)
    mean_all = float(np.mean(counts)) if counts.size else 0.0
    mean_int = float(np.mean(counts[interior])) if interior.any() else 0.0
    return mean_all, mean_int


def _neighbor_rank_mean(ba, dm):
    """Mean over ranks of how many other ranks own an adjacent box."""
    owner = np.asarray(dm.owner, dtype=np.int64)
    i, j = _touching(ba)
    ri, rj = owner[i], owner[j]
    other = ri != rj
    pairs = np.unique(ri[other] * dm.nranks + rj[other])
    used = np.bincount(pairs // dm.nranks, minlength=dm.nranks)
    return float(np.mean(used)) if used.size else 0.0


def _particle_digest(pc):
    """Order-independent fingerprint of the (id, pos) multiset."""
    import hashlib

    rows = []
    for key in pc.sorted_keys():
        t = pc.tiles[key]
        for k in range(t.size):
            rows.append((int(t.aos["id"][k]), t.aos["pos"][k].tobytes()))
    rows.sort()
    h = hashlib.sha256()
    for pid, blob in rows:
        h.update(pid.to_bytes(8, "little", signed=True))
        h.update(blob)
    return h.hexdigest()


def cmd_pbench(args):
    cfg, seed = _load_config(args)
    out = _outdir(args)
    dim = cfg.get_int("pb.dim", 3)
    n = cfg.get_int("pb.ncells", 32)
    mgs = cfg.get_int("pb.max_grid_size", 8)
    nparticles = cfg.get_int("pb.nparticles", 4096)
    nsteps = cfg.get_int("pb.nsteps", 500)
    ranks = cfg.get_int_list("pb.ranks", [1, 2, 4, 8, 16])
    scale = cfg.get_float("pb.step_scale", 1.0)

    domain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, periodic=True)
    ba = BoxArray([domain]).max_size(mgs)
    cost = [b.num_cells() for b in ba]
    mean_nb, interior_nb = _box_adjacency(ba, domain)

    rng = np.random.default_rng(seed)
    pos0 = rng.random((nparticles, dim))
    ids = np.arange(1, nparticles + 1, dtype=np.int64)
    step_len = scale * min(geom.cell_size)

    rows = []
    baseline = None
    for nranks in ranks:
        dm = sfc_distribute(ba, cost, nranks)
        pc = ParticleContainer([geom], [ba], [dm], nreal=0, nint=0)
        pc.add_particles(pos0, ids=ids)
        redistribute(pc)
        counters.reset("transport_messages", "transport_bytes")
        t0 = time.perf_counter()
        for step in range(nsteps):
            u = keyed_uniforms(seed, step, ids, ncomp=dim)
            delta = (2.0 * u - 1.0) * step_len
            for key in pc.sorted_keys():
                t = pc.tiles[key]
                if t.size:
                    t.aos["pos"] += delta[t.aos["id"] - 1]
            redistribute(pc)
        wall = time.perf_counter() - t0
        msgs = counters.get("transport_messages")
        nbytes = counters.get("transport_bytes")
        digest = _particle_digest(pc)
        if baseline is None:
            baseline = digest
        rows.append(
            (
                nranks,
                len(ba),
                len(ba) // nranks,
                nparticles,
                nsteps,
                wall,
                msgs,
                nbytes,
                mean_nb,
                interior_nb,
                _neighbor_rank_mean(ba, dm),
                int(digest == baseline),
            )
        )
    _write_csv(
        os.path.join(out, "pbench.csv"),
        [
            "nranks",
            "nboxes",
            "boxes_per_rank",
            "nparticles",
            "nsteps",
            "wall_s",
            "messages",
            "bytes",
            "mean_box_neighbors",
            "interior_box_neighbors",
            "mean_neighbor_ranks",
            "multiset_matches_first",
        ],
        rows,
    )
    for row in rows:
        print(
            f"R={row[0]} wall={row[5]:.3f}s messages={row[6]} "
            f"interior_box_neighbors={row[9]} multiset_ok={bool(row[11])}"
        )
    return 0


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------


def _cost_field(kind, nboxes, rng):
    if kind == "equal":
        return np.ones(nboxes)
    if kind == "random":
        return np.exp(rng.normal(0.0, 1.0, nboxes))
    if kind == "gradient":
        return 1.0 + np.arange(nboxes, dtype=np.float64)
    raise UserError(f"bal.cost must be equal, random or gradient, got {kind!r}")


def cmd_balance(args):
    cfg, seed = _load_config(args)
    out = _outdir(args)
    dim = cfg.get_int("bal.dim", 2)
    n = cfg.get_int("bal.ncells", 64)
    mgs = cfg.get_int("bal.max_grid_size", 8)
    ranks = cfg.get_int_list("bal.ranks", [1, 2, 4, 8])
    kind = cfg.get_str("bal.cost", "random")

    domain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
    ba = BoxArray([domain]).max_size(mgs)
    cost = _cost_field(kind, len(ba), np.random.default_rng(seed))

    rows = []
    for nranks in ranks:
        for strategy, dm in (
            ("knapsack", knapsack_distribute(cost, nranks)),
            ("sfc", sfc_distribute(ba, cost, nranks)),
        ):
            st = load_stats(dm, cost)
            rows.append(
                (
                    strategy,
                    nranks,
                    len(ba),
                    float(st["max_load"]),
                    float(st["mean_load"]),
                    float(st["efficiency"]),
                )
            )
    _write_csv(
        os.path.join(out, "balance.csv"),
        ["strategy", "nranks", "nboxes", "max_load", "mean_load", "efficiency"],
        rows,
    )
    for row in rows:
        print(f"{row[0]:>8} R={row[1]:<3} efficiency={row[5]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eb
# ---------------------------------------------------------------------------


def _jittered_fluid_volume(f, geom, ba, s, rng):
    """Stratified random sampling: one uniform draw per stratum, s^dim
    strata per cell.  Fluid is where the implicit function is negative.

    A cell that the Lipschitz bound certifies has one sign on its whole
    closure, so it counts all of its strata or none from the sign of its
    center; only the strata of uncertified cells are evaluated.  Every
    draw is still made, in the same order, so the result is unchanged."""
    dim = geom.dim
    cell_vol = float(np.prod(geom.cell_size))
    cells = eb._Cells(ba.bounds())
    centers = eb._center_values(f, geom, cells)
    uncertified = eb._classify_cells(f, geom, cells, centers)[1]
    hits = int((~uncertified & (centers < 0.0)).sum()) * s**dim
    total = 0
    for i, unc in cells.boxes(uncertified):
        b = ba[i]
        axes = []
        for d in range(dim):
            edges = geom.prob_lo[d] + (
                np.arange(b.lo[d], b.hi[d] + 1) - geom.domain.lo[d]
            ) * geom.cell_size[d]
            sub = (np.arange(s) / s) * geom.cell_size[d]
            axes.append((edges[:, None] + sub[None, :]).ravel())
        shape = tuple(len(a) for a in axes)
        jitter = rng.random((int(np.prod(shape)), dim))
        total += jitter.shape[0]
        for d in range(dim):
            unc = np.repeat(unc, s, axis=d)
        sel = np.flatnonzero(unc)
        if sel.size:
            idx = np.unravel_index(sel, shape)
            pts = np.stack(
                [axes[d][idx[d]] + jitter[sel, d] * (geom.cell_size[d] / s) for d in range(dim)],
                axis=1,
            )
            hits += int((f(pts) < 0.0).sum())
    return hits * cell_vol / s**dim, hits, total


def cmd_eb(args):
    cfg, seed = _load_config(args)
    out = _outdir(args)
    dim = cfg.get_int("eb.dim", 3)
    n = cfg.get_int("eb.ncells", 64)
    mgs = cfg.get_int("eb.max_grid_size", 16)
    s = cfg.get_int("eb.subsamples", 4)
    lo = cfg.get_float_list("eb.prob_lo", [-1.0] * dim)
    hi = cfg.get_float_list("eb.prob_hi", [1.0] * dim)
    csg_text = cfg.get_str("eb.csg")

    try:
        f = eb.parse_csg(csg_text) if csg_text else eb.listing_csg()
    except ValueError as exc:
        raise UserError(f"bad eb.csg expression: {exc}") from exc

    domain = Box(IntVect.zero(dim), IntVect((n - 1,) * dim))
    geom = Geometry(domain, lo, hi, periodic=False)
    ba = BoxArray([domain]).max_size(mgs)

    data = eb.compute_moments(f, geom, ba, subsamples=s)
    cell_vol = float(np.prod(geom.cell_size))
    fluid = 0.0
    counts = {eb.REGULAR: 0, eb.CUT: 0, eb.COVERED: 0}
    for i in range(len(ba)):
        fluid += float(data.volfrac.fab(i).valid(0).sum()) * cell_vol
        flags = data.flags.fab(i).valid(0)
        for kind in counts:
            counts[kind] += int((flags == kind).sum())
    domain_vol = float(
        np.prod([h - l for l, h in zip(geom.prob_lo, geom.prob_hi)])
    )
    pruned = ba.prune(eb.covered_box_predicate(f, geom))

    va, _, _ = _jittered_fluid_volume(f, geom, ba, s, np.random.default_rng(seed))
    vb, _, _ = _jittered_fluid_volume(
        f, geom, ba, s, np.random.default_rng(seed + 1)
    )
    jitter_rel = abs(va - vb) / max(abs(va), 1e-300)

    _write_csv(
        os.path.join(out, "eb.csv"),
        [
            "ncells",
            "nboxes",
            "boxes_after_prune",
            "regular_cells",
            "cut_cells",
            "covered_cells",
            "fluid_volume",
            "body_volume",
            "fluid_volume_jitter_a",
            "fluid_volume_jitter_b",
            "jitter_rel_diff",
        ],
        [
            (
                n,
                len(ba),
                len(pruned),
                counts[eb.REGULAR],
                counts[eb.CUT],
                counts[eb.COVERED],
                fluid,
                domain_vol - fluid,
                float(va),
                float(vb),
                float(jitter_rel),
            )
        ],
    )
    print(f"fluid_volume {fluid!r}")
    print(f"body_volume {domain_vol - fluid!r}")
    print(f"boxes {len(ba)} -> {len(pruned)} after pruning")
    print(f"jitter_rel_diff {jitter_rel!r}")
    return 0


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------


def _write_ppm(path, plane):
    """8-bit grayscale PPM (P6 with equal channels); a constant field maps
    to mid-gray so uniform input gives a uniform image."""
    lo, hi = float(plane.min()), float(plane.max())
    if hi > lo:
        pix = np.clip((plane - lo) / (hi - lo) * 255.0, 0.0, 255.0)
        pix = pix.astype(np.uint8)
    else:
        pix = np.full(plane.shape, 128, dtype=np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.repeat(pix[..., None], 3, axis=2).tobytes())


def cmd_slice(args):
    cfg, _seed = _load_config(args)
    out = _outdir(args)
    try:
        header, meshes = read_plotfile(args.plotfile)
    except (OSError, ValueError, IndexError) as exc:
        raise UserError(f"cannot read plotfile {args.plotfile!r}: {exc}") from exc
    level = cfg.get_int("slice.level", 0)
    comp = cfg.get_int("slice.comp", 0)
    if not 0 <= level < header.nlevels:
        raise UserError(f"slice.level {level} out of range")
    if not 0 <= comp < len(header.names):
        raise UserError(f"slice.comp {comp} out of range")
    geom = header.geoms[level]
    full = gather_global(meshes[level], geom.domain, comp=comp)
    if geom.dim == 2:
        plane = full
    else:
        axis = cfg.get_int("slice.axis", geom.dim - 1)
        if not 0 <= axis < geom.dim:
            raise UserError(f"slice.axis {axis} out of range for {geom.dim}D data")
        index = cfg.get_int("slice.index", geom.domain.extents()[axis] // 2)
        if not 0 <= index < geom.domain.extents()[axis]:
            raise UserError(f"slice.index {index} outside the domain")
        plane = np.take(full, index, axis=axis)
    _write_csv(
        os.path.join(out, "slice.csv"),
        [f"c{j}" for j in range(plane.shape[1])],
        [tuple(float(v) for v in row) for row in plane],
    )
    _write_ppm(os.path.join(out, "slice.ppm"), plane)
    print(f"slice {plane.shape[0]}x{plane.shape[1]} written to {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "advect": cmd_advect,
    "pbench": cmd_pbench,
    "balance": cmd_balance,
    "eb": cmd_eb,
    "slice": cmd_slice,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amrcli", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--nranks", type=int, default=1, help="simulated rank count")
        p.add_argument("--seed", type=int, help="run seed (or config key 'seed')")
        p.add_argument("--out", help="output directory (default: current)")
        if name == "slice":
            p.add_argument("plotfile", help="plotfile directory to slice")
    return parser


def main(argv=None):
    try:
        args, extra = _build_parser().parse_known_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    args.overrides = []
    for item in extra:
        if "=" not in item:
            print(f"error: unrecognized argument {item!r}", file=sys.stderr)
            return 1
        args.overrides.append(item)
    try:
        return _COMMANDS[args.command](args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except Exception as exc:  # anything unexpected is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
