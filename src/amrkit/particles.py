"""Distributed particles: tiled containers, redistribution, halo exchange,
neighbor lists, scan/compaction utilities, and particle-mesh transfer.

Conventions pinned here:
  * Cells are half-open: a particle at physical x lives in cell
    floor((x - prob_lo)/dx), so ownership on grid seams is unambiguous.
  * ids are positive and unique (per-origin counters interleaved round-robin
    over ranks); a negative id marks a particle for removal at the next
    redistribute.
  * Tiles are fixed index-space sub-boxes anchored at each grid's lo corner,
    so a particle's tile follows from its cell alone.  Tiles are separate
    storage, not views: each holds its own particle-major record array and
    component-major extras.
  * Every tile is kept sorted by id.  Arrival order during exchanges then
    never leaks into storage order, which makes every pass over the tiles
    in key order (deposition included) independent of the rank count.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import counters, kernels
from .boxarray import BoxArray, on_free
from .fabarray import (
    FabArray,
    fill_boundary,
    parallel_copy,
    sum_boundary,
    _periodic_shifts,
    _ranges,
)
from .index_space import Box, IntVect, as_intvect
from .transport import Transport, TransportError


class ParticleError(RuntimeError):
    def __init__(self, message, ids=()):
        ids = sorted(int(i) for i in ids)
        if ids:
            message = f"{message}: ids {ids}"
        super().__init__(message)
        self.ids = ids


def _aos_dtype(dim):
    return np.dtype(
        [("pos", np.float64, (dim,)), ("id", np.int64), ("origin", np.int32)]
    )


class _Packed(list):
    """Message payload: a list of tuples whose array members count as bytes."""

    @property
    def nbytes(self):
        total = 0
        for entry in self:
            for part in entry:
                total += getattr(part, "nbytes", 0)
        return total


def _exchange(transport, outbox, tag):
    """Send every outbox[(src_rank, dst_rank)] payload in sorted pair order,
    then drain every rank; returns the entries of the arrived payloads in
    destination rank, then source rank, then FIFO order.

    Raises TransportError unless each posted message is drained exactly
    once with its tag, and no other message is."""
    for (sr, dr), payload in sorted(outbox.items()):
        transport.send(sr, dr, tag, payload)
    expected = set(outbox)
    arrived = []
    for dr in range(transport.nranks):
        for sr, got, payload in transport.drain(dr):
            if got != tag or (sr, dr) not in expected:
                raise TransportError(sr, dr, "unexpected or duplicated message")
            expected.remove((sr, dr))
            arrived.extend(payload)
    if expected:
        sr, dr = min(expected)
        raise TransportError(sr, dr, f"{len(expected)} expected message(s) never arrived")
    return arrived


# ---------------------------------------------------------------------------
# tiles
# ---------------------------------------------------------------------------


class ParticleTile:
    """Storage for one (level, grid, tile) bucket.

    Particle-major records (pos, id, origin) live in one structured array;
    schema-declared extras live in component-major rows alongside, always
    index-aligned with the records.
    """

    __slots__ = ("aos", "rdata", "idata")

    def __init__(self, dim, nreal, nint, n=0):
        self.aos = np.zeros(n, dtype=_aos_dtype(dim))
        self.rdata = np.zeros((nreal, n))
        self.idata = np.zeros((nint, n), dtype=np.int64)

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


def _tile_counts(box, tsz):
    ext = box.extents()
    return tuple((ext[d] + tsz[d] - 1) // tsz[d] for d in range(box.dim))


def _tile_ids(pc, levels, grids, cells):
    """Linear tile id (row-major over each grid's tile lattice) per row."""
    tsz = np.asarray(pc.tile_size.coords, dtype=np.int64)
    tids = np.zeros(cells.shape[0], dtype=np.int64)
    for lev in range(pc.nlevels):
        sel = np.flatnonzero(levels == lev)
        b = pc.bas[lev].bounds()[grids[sel]]
        lo = b[:, 0]
        counts = (b[:, 1] - lo + tsz) // tsz
        t = (cells[sel] - lo) // tsz
        lin = np.zeros(sel.shape[0], dtype=np.int64)
        for d in range(pc.dim):
            lin = lin * counts[:, d] + t[:, d]
        tids[sel] = lin
    return tids


def _runs(*keys):
    """(starts, ends) of the runs of equal rows across sorted key columns."""
    n = keys[0].shape[0]
    if n == 0:
        return [], []
    change = np.zeros(n - 1, dtype=bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    ends = np.concatenate([starts[1:], [n]])
    return starts.tolist(), ends.tolist()


def tile_box_of(box, tsz, tid):
    """The index-space region of tile tid inside box (anchored at box.lo)."""
    counts = _tile_counts(box, tsz)
    coords = []
    rem = int(tid)
    for d in range(box.dim - 1, -1, -1):
        coords.append(rem % counts[d])
        rem //= counts[d]
    coords.reverse()
    lo = IntVect(box.lo[d] + coords[d] * tsz[d] for d in range(box.dim))
    hi = IntVect(
        min(box.lo[d] + (coords[d] + 1) * tsz[d] - 1, box.hi[d])
        for d in range(box.dim)
    )
    return Box(lo, hi, box.ixtype)


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


class _LayoutCache(dict):
    """Data derived from a particle layout, keyed (level, layout uid, ...):
    tile layouts and deposit folds.  Entries go when their layout is
    garbage collected."""

    def __init__(self):
        super().__init__()
        ref = weakref.ref(self)

        def evict(uid):
            cache = ref()
            if cache is not None:
                for key in list(cache):
                    if key[1] == uid:
                        cache.pop(key, None)

        self.evict = evict

    def cached(self, key, ba, build):
        hit = self.get(key)
        if hit is None:
            on_free(ba, self.evict)
            hit = self[key] = build()
        return hit


class ParticleContainer:
    """Per-level particle storage over (BoxArray, DistributionMapping) pairs.

    The layouts may differ from any mesh's layouts (dual grid); transfer ops
    bridge the two with temporary FabArrays.  Like FabArray, the container
    holds every rank's tiles in-process; ownership is the distribution map's
    say, and cross-rank motion runs through a Transport.
    """

    def __init__(self, geoms, bas, dms, nreal=0, nint=0, tile_size=None):
        if not isinstance(geoms, (list, tuple)):
            geoms, bas, dms = [geoms], [bas], [dms]
        if not (len(geoms) == len(bas) == len(dms) > 0):
            raise ValueError("need one (geometry, layout, mapping) triple per level")
        self.geoms = list(geoms)
        self.bas = list(bas)
        self.dms = list(dms)
        self.nranks = self.dms[0].nranks
        if any(dm.nranks != self.nranks for dm in self.dms):
            raise ValueError("all levels must share one rank count")
        dim = self.geoms[0].dim
        tile_size = as_intvect(1 << 30 if tile_size is None else tile_size, dim)
        if any(t < 1 for t in tile_size):
            raise ValueError("tile size must be >= 1 per dimension")
        self.tile_size = tile_size
        self.nreal = int(nreal)
        self.nint = int(nint)
        self.tiles = {}
        self.epoch = 0
        self._next = [0] * self.nranks
        self._layouts = _LayoutCache()

    @property
    def dim(self):
        return self.geoms[0].dim

    @property
    def nlevels(self):
        return len(self.geoms)

    def make_ids(self, n, origin_rank=0):
        base = self._next[origin_rank]
        self._next[origin_rank] += n
        return (base + np.arange(n, dtype=np.int64)) * self.nranks + origin_rank + 1

    def tile(self, level, grid, tid, create=False):
        key = (int(level), int(grid), int(tid))
        t = self.tiles.get(key)
        if t is None and create:
            t = ParticleTile(self.dim, self.nreal, self.nint)
            self.tiles[key] = t
        return t

    def sorted_keys(self):
        return sorted(self.tiles)

    def total_valid(self):
        return sum(int((t.aos["id"] > 0).sum()) for t in self.tiles.values())

    def all_ids(self):
        parts = [t.aos["id"] for t in self.tiles.values()] or [np.empty(0, np.int64)]
        return np.sort(np.concatenate(parts))

    def id_positions(self):
        """Mapping id -> position tuple over every stored particle."""
        out = {}
        for t in self.tiles.values():
            for rec in t.aos:
                out[int(rec["id"])] = tuple(float(x) for x in rec["pos"])
        return out

    def tile_layout(self, level):
        """BoxArray of every tile region on a level, and its (grid, tile)
        keys as an (ntiles, 2) array."""
        ba = self.bas[level]
        token = (level, ba.uid, self.tile_size.coords)

        def build():
            boxes, keys = [], []
            for g in range(len(ba)):
                counts = _tile_counts(ba[g], self.tile_size)
                ntiles = int(np.prod(counts))
                for tid in range(ntiles):
                    boxes.append(tile_box_of(ba[g], self.tile_size, tid))
                    keys.append((g, tid))
            return BoxArray(boxes, validate=False), np.array(keys, dtype=np.int64)

        return self._layouts.cached(token, ba, build)

    def add_particles(self, pos, rdata=None, idata=None, ids=None, origin_rank=0):
        """Insert particles at their located (level, grid, tile) buckets."""
        pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
        n = pos.shape[0]
        if ids is None:
            ids = self.make_ids(n, origin_rank)
        ids = np.asarray(ids, dtype=np.int64)
        aos = np.zeros(n, dtype=_aos_dtype(self.dim))
        aos["id"] = ids
        aos["origin"] = origin_rank
        rdata = np.zeros((self.nreal, n)) if rdata is None else np.asarray(rdata, float)
        idata = (
            np.zeros((self.nint, n), dtype=np.int64)
            if idata is None
            else np.asarray(idata, np.int64)
        )
        levels, grids, cells, wrapped = _locate_arrays(self, pos, ids)
        aos["pos"] = wrapped
        _scatter(self, aos, rdata, idata, levels, grids, cells)
        self.epoch += 1


def _scatter(pc, aos, rdata, idata, levels, grids, cells):
    tids = _tile_ids(pc, levels, grids, cells)
    order = np.lexsort((tids, grids, levels))
    levels, grids, tids = levels[order], grids[order], tids[order]
    for i, j in zip(*_runs(levels, grids, tids)):
        sel = order[i:j]
        tile = pc.tile(levels[i], grids[i], tids[i], create=True)
        tile.extend(aos[sel], rdata[:, sel], idata[:, sel])
        tile.sort_by_id()


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------


def _wrap_positions(geom, pos):
    w = np.array(pos, dtype=np.float64)
    plo = np.asarray(geom.prob_lo)
    phi = np.asarray(geom.prob_hi)
    ext = phi - plo
    for d in range(geom.dim):
        if not geom.periodic[d]:
            continue
        col = w[:, d]
        col -= ext[d] * np.floor((col - plo[d]) / ext[d])
        # rounding can park a wrapped coordinate exactly on the high edge
        col[col >= phi[d]] = plo[d]
    return w


def _cells_at(geom, w):
    plo = np.asarray(geom.prob_lo)
    dx = np.asarray(geom.cell_size)
    cells = np.floor((w - plo) / dx).astype(np.int64)
    for d in range(geom.dim):
        cells[:, d] += geom.domain.lo[d]
    return cells


def _locate_arrays(pc, pos, ids):
    """Level/grid/cell per row, finest level first; raises on failures."""
    w = _wrap_positions(pc.geoms[0], pos)
    n = w.shape[0]
    levels = np.full(n, -1, dtype=np.int64)
    grids = np.full(n, -1, dtype=np.int64)
    cells = np.zeros((n, pc.dim), dtype=np.int64)
    for lev in range(pc.nlevels - 1, -1, -1):
        pending = np.nonzero(levels < 0)[0]
        if pending.size == 0:
            break
        c = _cells_at(pc.geoms[lev], w[pending])
        g = pc.bas[lev].owners_at(c)
        hit = g >= 0
        rows = pending[hit]
        levels[rows] = lev
        grids[rows] = g[hit]
        cells[rows] = c[hit]
    if (levels < 0).any():
        bad = np.nonzero(levels < 0)[0]
        dom = pc.geoms[0].domain
        c0 = _cells_at(pc.geoms[0], w[bad])
        inside = np.ones(bad.size, dtype=bool)
        for d in range(pc.dim):
            inside &= (c0[:, d] >= dom.lo[d]) & (c0[:, d] <= dom.hi[d])
        if not inside.all():
            raise ParticleError(
                "position outside the non-periodic domain", ids[bad[~inside]]
            )
        raise ParticleError("no level covers particle position", ids[bad])
    return levels, grids, cells, w


def locate(pc, pos):
    """(level, grid, cell) for one position, scanning finest to coarsest."""
    levels, grids, cells, _ = _locate_arrays(
        pc, np.asarray(pos, float)[None, :], np.array([0], dtype=np.int64)
    )
    return int(levels[0]), int(grids[0]), IntVect(cells[0])


def _stored_keys(keys, sizes):
    """Per-row (level, grid, tile) columns of tiles stored back to back."""
    k = np.array(keys, dtype=np.int64).reshape(-1, 3)
    return tuple(np.repeat(k[:, c], sizes) for c in range(3))


def check_locations(pc):
    """Violations of `stored bucket == locate result` over every particle,
    as (id, stored key, located key) in stored order."""
    keys = [k for k in pc.sorted_keys() if pc.tiles[k].size]
    if not keys:
        return []
    tiles = [pc.tiles[k] for k in keys]
    ids = np.concatenate([t.aos["id"] for t in tiles])
    levels, grids, cells, _ = _locate_arrays(
        pc, np.concatenate([t.aos["pos"] for t in tiles]), ids
    )
    tids = _tile_ids(pc, levels, grids, cells)
    slev, sgrid, stid = _stored_keys(keys, [t.size for t in tiles])
    bad = np.flatnonzero((levels != slev) | (grids != sgrid) | (tids != stid))
    cols = (ids, slev, sgrid, stid, levels, grids, tids)
    return [(r[0], r[1:4], r[4:]) for r in zip(*(c[bad].tolist() for c in cols))]


# ---------------------------------------------------------------------------
# redistribute
# ---------------------------------------------------------------------------


def _default_local_k(pc):
    ext = 0
    for ba in pc.bas:
        for b in ba:
            ext = max(ext, max(b.extents()))
    return max(ext // 2, 1)


def redistribute(pc, transport=None, mode="global", k=None, subcycle=None):
    """Rebucket every particle at locate()'s (level, grid, tile) bucket.

    mode="local" asserts no particle left its tile region by more than k
    cells (the verifiable form of "moved at most k cells"); violations name
    ids and nothing is mutated.  subcycle={"levels": ..., "band": n} leaves
    particles on the excluded levels in place while they remain within n
    cells of their tile region.  Negative-id particles are dropped.  Tiles
    finish sorted by id, so the outcome is one canonical container no
    matter how many ranks took part.

    Every particle to place is located in one batch; movers travel as one
    block per (source tile, destination tile), in one message per rank
    pair.  A position no level covers raises before any particle moves.
    """
    if mode not in ("local", "global"):
        raise ValueError("mode must be 'local' or 'global'")
    if transport is None:
        transport = Transport(pc.nranks)
    if mode == "local":
        kk = _default_local_k(pc) if k is None else int(k)
        violations = []
        for key in pc.sorted_keys():
            lev, g, t = key
            tile = pc.tiles[key]
            valid = tile.aos["id"] > 0
            if not valid.any():
                continue
            cells = _cells_at(pc.geoms[lev], tile.aos["pos"][valid])
            tbox = tile_box_of(pc.bas[lev][g], pc.tile_size, t).grow(kk)
            ok = np.ones(cells.shape[0], dtype=bool)
            for d in range(pc.dim):
                ok &= (cells[:, d] >= tbox.lo[d]) & (cells[:, d] <= tbox.hi[d])
            if not ok.all():
                violations.extend(tile.aos["id"][valid][~ok].tolist())
        if violations:
            raise ParticleError("local-mode displacement bound exceeded", violations)

    sub_levels = set()
    band = 0
    if subcycle is not None:
        sub_levels = set(int(x) for x in subcycle["levels"])
        band = int(subcycle.get("band", 0))

    pc.epoch += 1
    # drop removed particles and empty tiles, and pick the rows to locate
    keys, tiles, rows = [], [], []
    for key in pc.sorted_keys():
        lev, g, t = key
        tile = pc.tiles[key]
        valid = tile.aos["id"] > 0
        if not valid.all():
            tile.keep(valid)
        if tile.size == 0:
            del pc.tiles[key]
            continue
        idx = np.arange(tile.size)
        if lev in sub_levels:
            cells = _cells_at(pc.geoms[lev], tile.aos["pos"])
            tbox = tile_box_of(pc.bas[lev][g], pc.tile_size, t).grow(band)
            stay = np.ones(tile.size, dtype=bool)
            for d in range(pc.dim):
                stay &= (cells[:, d] >= tbox.lo[d]) & (cells[:, d] <= tbox.hi[d])
            idx = idx[~stay]
            if idx.size == 0:
                continue
        keys.append(key)
        tiles.append(tile)
        rows.append(idx)

    outbox = {}
    arrivals = []
    moved = 0
    if keys:
        sizes = [r.size for r in rows]
        levels, grids, cells, wrapped = _locate_arrays(
            pc,
            np.concatenate([t.aos["pos"][r] for t, r in zip(tiles, rows)]),
            np.concatenate([t.aos["id"][r] for t, r in zip(tiles, rows)]),
        )
        offsets = np.cumsum([0] + sizes).tolist()
        for tile, r, a, b in zip(tiles, rows, offsets, offsets[1:]):
            tile.aos["pos"][r] = wrapped[a:b]
        tids = _tile_ids(pc, levels, grids, cells)
        slev, sgrid, stid = _stored_keys(keys, sizes)
        moving = np.flatnonzero((levels != slev) | (grids != sgrid) | (tids != stid))
        moved = moving.size
        src = np.repeat(np.arange(len(keys)), sizes)[moving]
        row = np.concatenate(rows)[moving]
        mlev, mgrid, mtid = levels[moving], grids[moving], tids[moving]
        # stable: rows keep their tile order inside each (source, destination)
        # block, which is the arrival order sort_by_id sees for repeated ids
        order = np.lexsort((mtid, mgrid, mlev, src))
        src, row, mlev, mgrid, mtid = (a[order] for a in (src, row, mlev, mgrid, mtid))
        for i, j in zip(*_runs(src, mlev, mgrid, mtid)):
            lev, g, _ = keys[src[i]]
            dkey = (int(mlev[i]), int(mgrid[i]), int(mtid[i]))
            entry = (dkey,) + tiles[src[i]].take(row[i:j])
            src_rank = pc.dms[lev][g]
            dst_rank = pc.dms[dkey[0]][dkey[1]]
            if dst_rank == src_rank:
                arrivals.append(entry)
            else:
                outbox.setdefault((src_rank, dst_rank), _Packed()).append(entry)
        for i, j in zip(*_runs(src)):
            tile = tiles[src[i]]
            keep = np.ones(tile.size, dtype=bool)
            keep[row[i:j]] = False
            tile.keep(keep)
            if tile.size == 0:
                del pc.tiles[keys[src[i]]]

    arrivals.extend(_exchange(transport, outbox, "redistribute"))

    grouped = {}
    for dkey, aos, rdata, idata in arrivals:
        grouped.setdefault(dkey, []).append((aos, rdata, idata))
    for dkey in sorted(grouped):
        parts = grouped[dkey]
        tile = pc.tile(*dkey, create=True)
        tile.extend(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts], axis=1),
            np.concatenate([p[2] for p in parts], axis=1),
        )
        tile.sort_by_id()
    counters.incr("particles_redistributed", moved)


# ---------------------------------------------------------------------------
# neighbor halo
# ---------------------------------------------------------------------------


class _HaloTile:
    """One holder tile's copies: views into the halo's columns."""

    __slots__ = ("pos", "ids", "rdata", "src_grid", "src_tile", "src_slot", "shift")

    def __init__(self, halo, a, b):
        for name in ("pos", "ids", "src_grid", "src_tile", "src_slot", "shift"):
            setattr(self, name, getattr(halo, name)[a:b])
        self.rdata = halo.rdata[:, a:b]

    @property
    def size(self):
        return self.ids.shape[0]


class NeighborHalo:
    """Copies of nearby foreign particles, kept as flat columns.

    Rows are in one canonical order: holder (level, grid, tile), then owner
    grid, tile and slot, then the periodic cell shift applied, so the halo
    never depends on which rank supplied which copy.  The provenance is
    enough to refresh payloads or push sums back; ``tiles[key]`` views one
    holder tile's rows.  The epoch ties the membership to one redistribute
    generation.
    """

    __slots__ = (
        "nghost", "epoch", "tiles", "level", "grid", "tile",
        "src_grid", "src_tile", "src_slot", "ids", "shift", "pos", "rdata",
    )

    def __init__(self, nghost, epoch, ints, shift, pos, rdata):
        self.nghost = int(nghost)
        self.epoch = epoch
        (self.level, self.grid, self.tile,
         self.src_grid, self.src_tile, self.src_slot, self.ids) = ints.T
        self.shift = shift
        self.pos = pos
        self.rdata = rdata
        self.tiles = {}
        for a, b in zip(*_runs(self.level, self.grid, self.tile)):
            key = (int(self.level[a]), int(self.grid[a]), int(self.tile[a]))
            self.tiles[key] = _HaloTile(self, a, b)

    @property
    def total(self):
        return self.ids.shape[0]


def _require_fresh(pc, halo):
    if halo.epoch != pc.epoch:
        raise ParticleError("halo is stale; rebuild with fill_neighbors")


def _stored(pc):
    """Every stored particle, tiles back to back in sorted key order:
    (level, grid, tile, slot, id) columns, positions, extras with particles
    on axis 0, and each tile key's first row."""
    keys = pc.sorted_keys()
    tiles = [pc.tiles[k] for k in keys]
    sizes = [t.size for t in tiles]
    first = np.cumsum([0] + sizes)
    aos = np.concatenate([np.zeros(0, _aos_dtype(pc.dim))] + [t.aos for t in tiles])
    cols = np.column_stack(
        _stored_keys(keys, sizes)
        + (np.arange(first[-1]) - np.repeat(first[:-1], sizes), aos["id"])
    )
    rdata = np.concatenate([np.zeros((pc.nreal, 0))] + [t.rdata for t in tiles], axis=1)
    return cols, aos["pos"], rdata.T, dict(zip(keys, first.tolist()))


def _ranks(pc, levels, grids):
    """Owner rank of (level, grid) per row."""
    out = np.empty(grids.shape[0], dtype=np.int64)
    for lev in range(pc.nlevels):
        sel = levels == lev
        out[sel] = np.asarray(pc.dms[lev].owner, dtype=np.int64)[grids[sel]]
    return out


def _route(transport, src, dst, cols, tag):
    """Deliver the rows of cols (arrays sharing axis 0) from rank src[i] to
    rank dst[i]: one message per rank pair with any remote row.  Returns the
    columns of the local rows followed by the arrived ones."""
    local = src == dst
    outbox = {}
    for sr, dr in sorted(set(zip(src[~local].tolist(), dst[~local].tolist()))):
        sel = (src == sr) & (dst == dr)
        outbox[(sr, dr)] = _Packed([tuple(c[sel] for c in cols)])
    blocks = [tuple(c[local] for c in cols)] + _exchange(transport, outbox, tag)
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def fill_neighbors(pc, nghost, transport=None):
    """Build the halo: copies of every particle within nghost cells of a
    foreign tile's region, periodic images included.

    A particle reaches tile T under a periodic shift iff its shifted cell
    lies in T's region grown by nghost, so each (level, shift) is one batch
    intersections query of the particles' grown shifted cells against the
    level's tile layout; particles shifted out of the layout's reach are
    not queried.  Copies travel as columns, one message per rank pair.
    """
    if transport is None:
        transport = Transport(pc.nranks)
    nghost = int(nghost)
    dim = pc.dim
    own, own_pos, own_r, _ = _stored(pc)
    # per copy: level, holder grid and tile, then owner grid, tile, slot, id
    ints = [np.zeros((0, 7), dtype=np.int64)]
    shifts = [np.zeros((0, dim), dtype=np.int64)]
    pos = [np.zeros((0, dim))]
    rdata = [own_r[:0]]
    for lev in range(pc.nlevels):
        on = np.flatnonzero(own[:, 0] == lev)
        if not on.shape[0]:
            continue
        geom = pc.geoms[lev]
        dx = np.asarray(geom.cell_size)
        cells = _cells_at(geom, own_pos[on])
        layout_ba, holders = pc.tile_layout(lev)
        b = layout_ba.bounds()
        reach_lo = b[:, 0].min(axis=0) - nghost
        reach_hi = b[:, 1].max(axis=0) + nghost
        for s in _periodic_shifts(geom.domain, geom.periodic, dim):
            sc = np.asarray(s, dtype=np.int64)
            shifted = cells + sc
            near = np.flatnonzero(
                ((shifted >= reach_lo) & (shifted <= reach_hi)).all(axis=1)
            )
            q, box, _, _ = layout_ba.intersections(
                np.stack([shifted[near] - nghost, shifted[near] + nghost], axis=1)
            )
            row, held = on[near[q]], holders[box]
            if not any(s):
                foreign = (held != own[row, 1:3]).any(axis=1)
                row, held = row[foreign], held[foreign]
            ints.append(np.column_stack([own[row, 0], held, own[row, 1:]]))
            shifts.append(np.broadcast_to(sc, (row.shape[0], dim)))
            pos.append(own_pos[row] + sc * dx)
            rdata.append(own_r[row])
    ints = np.concatenate(ints)
    ints, shift, pos, rdata = _route(
        transport,
        _ranks(pc, ints[:, 0], ints[:, 3]),
        _ranks(pc, ints[:, 0], ints[:, 1]),
        (ints, np.concatenate(shifts), np.concatenate(pos), np.concatenate(rdata)),
        "fill_neighbors",
    )
    # canonical order: holder, then owner identity, then image shift
    order = np.lexsort(
        tuple(shift[:, d] for d in range(dim - 1, -1, -1))
        + tuple(ints[:, c] for c in range(5, -1, -1))
    )
    halo = NeighborHalo(
        nghost, pc.epoch, ints[order], shift[order], pos[order], rdata[order].T
    )
    counters.incr("halo_copies", halo.total)
    return halo


def update_neighbors(pc, halo, transport=None):
    """Refresh halo payloads (pos and extras) from their owners; membership
    and provenance stay as built."""
    _require_fresh(pc, halo)
    if transport is None:
        transport = Transport(pc.nranks)
    _, own_pos, own_r, first = _stored(pc)
    # each copy's owner row: its owner tile's first row plus its slot
    owner = np.column_stack([halo.level, halo.src_grid, halo.src_tile])
    uniq, inv = np.unique(owner, axis=0, return_inverse=True)
    base = np.array([first[tuple(k)] for k in uniq.tolist()], dtype=np.int64)
    row = base[inv.reshape(-1)] + halo.src_slot
    dx = np.array([g.cell_size for g in pc.geoms])[halo.level]
    idx, fresh_pos, fresh_r = _route(
        transport,
        _ranks(pc, halo.level, halo.src_grid),
        _ranks(pc, halo.level, halo.grid),
        (np.arange(halo.total), own_pos[row] + halo.shift * dx, own_r[row]),
        "update_neighbors",
    )
    halo.pos[idx] = fresh_pos
    halo.rdata[:, idx] = fresh_r.T


def sum_neighbors(pc, halo, comp, transport=None):
    """Add each halo copy's component value onto its owner particle.

    Contributions apply in one canonical order (owner bucket and slot, then
    holder bucket), so the result is rank-count independent bit for bit.
    """
    _require_fresh(pc, halo)
    if transport is None:
        transport = Transport(pc.nranks)
    comp = int(comp)
    sizes = [ht.size for ht in halo.tiles.values()]
    hidx = np.repeat(np.arange(len(sizes)), sizes)
    # owner level, grid, tile and slot, then holder index and row
    keys = np.column_stack(
        [halo.level, halo.src_grid, halo.src_tile, halo.src_slot, hidx,
         np.arange(halo.total) - np.cumsum([0] + sizes)[hidx]]
    )
    keys, vals = _route(
        transport,
        _ranks(pc, halo.level, halo.grid),
        _ranks(pc, halo.level, halo.src_grid),
        (keys, halo.rdata[comp]),
        "sum_neighbors",
    )
    order = np.lexsort(tuple(keys[:, c] for c in range(5, -1, -1)))
    keys = keys[order]
    vals = vals[order]
    for i, j in zip(*_runs(keys[:, 0], keys[:, 1], keys[:, 2])):
        tile = pc.tiles[tuple(keys[i, :3].tolist())]
        np.add.at(tile.rdata[comp], keys[i:j, 3], vals[i:j])


# ---------------------------------------------------------------------------
# neighbor lists
# ---------------------------------------------------------------------------


class _TileList:
    __slots__ = ("offsets", "indices", "ids", "n_owned")

    def __init__(self, offsets, indices, ids, n_owned):
        self.offsets = offsets
        self.indices = indices
        self.ids = ids
        self.n_owned = n_owned

    def neighbors_of(self, i):
        return self.indices[self.offsets[i] : self.offsets[i + 1]]


class NeighborList:
    """Per owned particle, indices into that tile's owned+halo storage."""

    __slots__ = ("cutoff", "tiles")

    def __init__(self, cutoff):
        self.cutoff = float(cutoff)
        self.tiles = {}

    def id_pairs(self):
        """Unordered id pairs over every listed neighbor relation."""
        out = set()
        for tl in self.tiles.values():
            for i in range(tl.n_owned):
                a = int(tl.ids[i])
                for j in tl.neighbors_of(i):
                    b = int(tl.ids[j])
                    out.add((min(a, b), max(a, b)))
        return out


def build_neighbor_list(pc, halo, cutoff, predicate=None):
    """Candidate pairs from cutoff-sized bins over owned+halo particles,
    kept where the predicate holds (default: distance <= cutoff)."""
    _require_fresh(pc, halo)
    cutoff = float(cutoff)
    nl = NeighborList(cutoff)
    for key in pc.sorted_keys():
        lev, g, t = key
        tile = pc.tiles[key]
        if tile.size == 0:
            continue
        geom = pc.geoms[lev]
        dx = np.asarray(geom.cell_size)
        if halo.nghost * float(dx.min()) < cutoff:
            raise ParticleError(
                f"halo nghost={halo.nghost} too small for cutoff {cutoff}"
            )
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
            pairs = kernels.neighbor_pairs(all_pos, lo, hi, cutoff)
        else:
            pairs = kernels.neighbor_pairs(all_pos, lo, hi, cutoff, max_dist=np.inf)
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
        nl.tiles[key] = _TileList(offsets, dst, all_ids, n_own)
    return nl


# ---------------------------------------------------------------------------
# scan utilities
# ---------------------------------------------------------------------------


def prefix_scan(n, reader, writer=None, kind="exclusive", chunk=65536):
    """Running tally over reader(0..n-1) through writer(i, partial).

    Chunks are scanned left to right with an exact carry, so any chunk size
    reproduces the sequential result, additions in the same order.
    """
    if kind not in ("exclusive", "inclusive"):
        raise ValueError("kind must be 'exclusive' or 'inclusive'")
    if n < 0:
        raise ValueError("n must be >= 0")
    chunk = max(int(chunk), 1)
    carry = None
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        values = np.asarray([reader(i) for i in range(start, stop)])
        carry = values.dtype.type(0 if carry is None else carry)
        # np.cumsum adds strictly left to right, so the carry makes chunked
        # scans bitwise equal to one whole-array pass
        run = np.cumsum(np.concatenate([np.array([carry], dtype=values.dtype), values]))
        out = run[:-1] if kind == "exclusive" else run[1:]
        out = out.astype(values.dtype, copy=False)
        carry = run[-1]
        if writer is not None:
            for off in range(stop - start):
                writer(start + off, out[off])
    if carry is None:
        return 0
    return carry.item() if hasattr(carry, "item") else carry


def bin_permutation(cells, nbins):
    """Counting-sort pieces: per-bin counts, exclusive-scan offsets, and a
    bin-stable permutation into sorted order."""
    cells = np.asarray(cells, dtype=np.int64)
    nbins = int(nbins)
    if cells.size and (cells.min() < 0 or cells.max() >= nbins):
        raise ValueError("bin id out of range")
    counts = np.bincount(cells, minlength=nbins).astype(np.int64)
    offsets = np.zeros(nbins, dtype=np.int64)
    prefix_scan(
        nbins,
        lambda i: counts[i],
        lambda i, v: offsets.__setitem__(i, v),
        kind="exclusive",
    )
    perm = np.argsort(cells, kind="stable").astype(np.int64)
    return counts, offsets, perm


def stream_compact(n, predicate):
    """(kept count, indices of kept elements in original order)."""
    flags = np.fromiter((1 if predicate(i) else 0 for i in range(n)), np.int64, n)
    slots = np.zeros(n, dtype=np.int64)
    total = prefix_scan(
        n,
        lambda i: flags[i],
        lambda i, v: slots.__setitem__(i, v),
        kind="exclusive",
    )
    kept = int(total)
    out = np.empty(kept, dtype=np.int64)
    sel = flags == 1
    out[slots[sel]] = np.nonzero(sel)[0]
    return kept, out


def partition(n, predicate):
    """(kept count, permutation with kept elements stable-first)."""
    kept, front = stream_compact(n, predicate)
    _, back = stream_compact(n, lambda i, f=predicate: not f(i))
    return kept, np.concatenate([front, back])


# ---------------------------------------------------------------------------
# particle-mesh transfer
# ---------------------------------------------------------------------------


_KERNEL_RADIUS = {"ngp": 0, "cic": 1}


def _c_strides(ext):
    """C-order element strides of boxes with extents ext, (n, D)."""
    ones = np.ones((ext.shape[0], 1), dtype=np.int64)
    return np.concatenate([np.cumprod(ext[:, :0:-1], axis=1)[:, ::-1], ones], axis=1)


def _level_particles(pc, level):
    """The level's non-empty tile keys in sorted_keys() order, their
    particle counts, and their positions concatenated in that order (None
    without keys)."""
    keys = [k for k in pc.sorted_keys() if k[0] == level and pc.tiles[k].size]
    counts = np.array([pc.tiles[k].size for k in keys], dtype=np.int64)
    pos = np.concatenate([pc.tiles[k].aos["pos"] for k in keys]) if keys else None
    return keys, counts, pos


def _frame(geom):
    """prob_lo and inverse cell size, as the kernels take them."""
    return np.asarray(geom.prob_lo), 1.0 / np.asarray(geom.cell_size)


def _per_particle(geom, counts, lo, stride, base):
    """The kernels' batched indexing, (lo, stride, base), from one row per
    tile repeated over the tile's counts particles; lo corners go into the
    frame of the domain's lo corner, where prob_lo sits."""
    lo = lo - np.asarray(geom.domain.lo.coords, dtype=np.int64)
    return tuple(np.repeat(a, counts, axis=0) for a in (lo, stride, base))


def _ngp_index(plo, dxinv, pos, lo, stride, base):
    """Flat index of the cell holding each particle, in the batched form
    of the CIC kernels."""
    cells = np.floor((pos - plo) * dxinv).astype(np.int64)
    return base + ((cells - lo) * stride).sum(axis=1)


def _deposit_layout(pc, level, radius, target):
    """Per tile of the level's tile layout, in layout order: the buffer
    (tile region grown by radius) lo corners, extents and sizes, the row
    of each grid's first tile, and the fold: the arena index in target of
    every buffer element, buffer after buffer.  Cached with the tile
    layout."""
    ba = pc.bas[level]
    token = (level, ba.uid, pc.tile_size.coords, radius, target.layout)

    def build():
        tiles, keys = pc.tile_layout(level)
        b = tiles.bounds()
        lo = b[:, 0] - radius
        ext = b[:, 1] - b[:, 0] + 1 + 2 * radius
        size = ext.prod(axis=1)
        first = np.searchsorted(keys[:, 0], np.arange(len(ba)))
        fold = target._region_index(keys[:, 0], lo, ext)
        return lo, ext, size, np.cumsum(size) - size, first, fold

    return pc._layouts.cached(token, ba, build)


def particle_to_mesh(
    pc, mesh, transport=None, kernel="cic", dual_grid=False, level=0, comp=0, weight=None
):
    """Deposit particle weights onto the mesh component (overwriting it).

    Each non-empty tile deposits into a private buffer covering its region
    plus the kernel radius.  The buffers are segments of one flat array,
    filled by one kernel call over the level's particles in sorted_keys()
    order; one np.add.at then folds them into the arena buffer after
    buffer in tile order, so every cell sees the additions a per-tile loop
    would make.  Ghost cells fold across grids with a boundary sum.  With
    dual_grid the deposit lands on a scratch FabArray over the particle
    layout first and is then copied onto the mesh's valid cells, so the
    mesh needs no ghost cells.
    """
    kernel = kernel.lower()
    radius = _KERNEL_RADIUS[kernel]
    if transport is None:
        transport = Transport(pc.nranks)
    geom = pc.geoms[level]
    if dual_grid:
        target = FabArray(pc.bas[level], pc.dms[level], 1, ngrow=radius, dtype=mesh.dtype)
    else:
        if mesh.ngrow < radius:
            raise ParticleError(f"mesh ngrow {mesh.ngrow} < kernel radius {radius}")
        if mesh.ba != pc.bas[level]:
            raise ParticleError("mesh layout differs; deposit needs dual_grid=True")
        target = mesh.component(comp)
    target.setval(0.0)
    keys, counts, pos = _level_particles(pc, level)
    if keys:
        if weight is None:
            w = np.ones(pos.shape[0])
        else:
            w = np.concatenate([pc.tiles[k].rdata[int(weight)] for k in keys])
        lo, ext, size, start, first, fold = _deposit_layout(pc, level, radius, target)
        rows = first[[k[1] for k in keys]] + np.array([k[2] for k in keys], dtype=np.int64)
        seg = np.cumsum(size[rows]) - size[rows]
        buf = np.zeros(int(seg[-1] + size[rows[-1]]), dtype=target.dtype)
        box = _per_particle(geom, counts, lo[rows], _c_strides(ext[rows]), seg)
        plo, dxinv = _frame(geom)
        if kernel == "cic":
            kernels.deposit_cic(pos, w, plo, dxinv, box[0], buf, *box[1:])
        else:
            np.add.at(buf, _ngp_index(plo, dxinv, pos, *box), w)
        if rows.shape[0] < size.shape[0]:  # some tiles are empty
            fold = fold[_ranges(start[rows], size[rows])]
        np.add.at(target.arena, fold, buf)
    sum_boundary(target, transport, geom.domain, geom.periodic)
    if dual_grid:
        mesh_alias = mesh.component(comp)
        mesh_alias.setval(0.0)
        parallel_copy(mesh_alias, target, transport, geom.domain, geom.periodic)


def mesh_to_particle(
    pc, mesh, transport=None, kernel="cic", dual_grid=False, level=0, comp=0, out_comp=None
):
    """Interpolate the mesh component to every particle on the level.

    Ghost cells are refreshed first, then one kernel call gathers every
    particle of the level straight from the arena, each through its own
    grid's fab.  Returns {(level, grid, tile): values} over the non-empty
    tiles, the values being slices of one array; out_comp also stores the
    values into that extra-real component.
    """
    kernel = kernel.lower()
    radius = _KERNEL_RADIUS[kernel]
    if transport is None:
        transport = Transport(pc.nranks)
    geom = pc.geoms[level]
    if dual_grid:
        src = FabArray(pc.bas[level], pc.dms[level], 1, ngrow=max(radius, 1), dtype=mesh.dtype)
        parallel_copy(src, mesh.component(comp), transport, geom.domain, geom.periodic)
    else:
        if mesh.ngrow < radius:
            raise ParticleError(f"mesh ngrow {mesh.ngrow} < kernel radius {radius}")
        if mesh.ba != pc.bas[level]:
            raise ParticleError("mesh layout differs; gather needs dual_grid=True")
        src = mesh.component(comp)
    fill_boundary(src, transport, geom.domain, geom.periodic)
    keys, counts, pos = _level_particles(pc, level)
    if not keys:
        return {}
    grids = np.array([k[1] for k in keys], dtype=np.int64)
    box = _per_particle(
        geom, counts, src.glo[grids], _c_strides(src.gext[grids]), src.offsets[grids]
    )
    plo, dxinv = _frame(geom)
    if kernel == "cic":
        vals = kernels.gather_cic(pos, plo, dxinv, box[0], src.arena, *box[1:])
    else:
        vals = src.arena[_ngp_index(plo, dxinv, pos, *box)]
    out = {}
    ends = np.cumsum(counts).tolist()
    for key, a, b in zip(keys, [0] + ends[:-1], ends):
        out[key] = vals[a:b]
        if out_comp is not None:
            pc.tiles[key].rdata[int(out_comp)] = vals[a:b]
    return out


# ---------------------------------------------------------------------------
# keyed pseudo-random draws
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _mix_int(x):
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_array(x):
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def keyed_uniforms(seed, step, ids, ncomp=1):
    """Uniform [0,1) draws keyed by (seed, step, id, component).

    The draw for a given particle depends only on those keys, never on
    storage order or rank count, so randomized motion stays reproducible
    under any decomposition.
    """
    ids64 = np.asarray(ids, dtype=np.uint64)
    base = _mix_int((int(seed) * 0x9E3779B97F4A7C15) ^ _mix_int(int(step) + 0x632BE59BD9B4E019))
    out = np.empty((ids64.shape[0], int(ncomp)))
    for c in range(int(ncomp)):
        salt = np.uint64((base + c * 0x8CB92BA72F3D8DD7) & _MASK64)
        h = _mix_array(ids64 * np.uint64(0x9E3779B97F4A7C15) + salt)
        out[:, c] = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out
