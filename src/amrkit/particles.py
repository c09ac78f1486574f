"""Distributed particles: tiled containers, redistribution, halo exchange,
neighbor lists, scan/compaction utilities, and particle-mesh transfer.

Conventions pinned here:
  * Cells are half-open: a particle at physical x lives in cell
    floor((x - prob_lo)/dx), so ownership on grid seams is unambiguous.
  * ids are positive and unique (per-origin counters interleaved round-robin
    over ranks); a negative id marks a particle for removal at the next
    redistribute.
  * Tiles are fixed index-space sub-boxes anchored at each grid's lo corner,
    so a particle's tile follows from its cell alone.
  * A container keeps every particle in one store: a particle-major record
    array plus component-major extras, rows sorted by (level, grid, tile,
    id), with the non-empty tiles' keys and CSR row offsets.  Each level's
    particles are one run of rows and each tile's one run inside it.  A
    tile in ``pc.tiles`` is views of its rows, so writes into a tile are
    writes into the store.
  * Sorting by id inside a tile keeps arrival order from leaking into
    storage order, which makes every pass over the store (deposition
    included) independent of the rank count.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import counters, kernels
from .kernels import _c_strides
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
    """One (level, grid, tile) bucket: views of its rows of the container's
    store.

    Particle-major records (pos, id, origin) and the component-major
    extras are slices of the store's arrays; write into them, do not
    rebind them.
    """

    __slots__ = ("aos", "rdata", "idata", "_pc", "_key", "_at")

    def __init__(self, pc, key, a, b):
        # a weak reference, so a container and its tiles form no cycle
        self._pc, self._key, self._at = weakref.ref(pc), key, a
        self.aos = pc.aos[a:b]
        self.rdata = pc.rdata[:, a:b]
        self.idata = pc.idata[:, a:b]

    @property
    def size(self):
        return self.aos.shape[0]

    def keep(self, mask):
        """Remove the rows where mask is False from the store; the tile
        then views the rows it kept."""
        pc = self._pc()
        rows = np.ones(pc.aos.shape[0], dtype=bool)
        rows[self._at : self._at + self.size] = mask
        _store_rows(pc, pc.aos, pc.rdata, pc.idata, pc._row_keys(), np.flatnonzero(rows))
        t = pc.tiles.get(self._key) or ParticleTile(pc, self._key, 0, 0)
        self.aos, self.rdata, self.idata, self._at = t.aos, t.rdata, t.idata, t._at


def _tile_counts(box, tsz):
    ext = box.extents()
    return tuple((ext[d] + tsz[d] - 1) // tsz[d] for d in range(box.dim))


def _tile_ids(pc, levels, grids, cells):
    """Linear tile id (row-major over each grid's tile lattice) per row."""
    tsz = np.asarray(pc.tile_size.coords, dtype=np.int64)
    tids = np.zeros(cells.shape[0], dtype=np.int64)
    for lev in range(pc.nlevels):
        sel = np.flatnonzero(levels == lev)
        b = pc.bas[lev].bounds()
        counts = (b[:, 1] - b[:, 0] + tsz) // tsz  # per grid
        g, c = grids[sel], cells[sel]
        lin = np.zeros(sel.shape[0], dtype=np.int64)
        for d in range(pc.dim):
            lin = lin * counts[g, d] + (c[:, d] - b[g, 0, d]) // tsz[d]
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


def _codes(*keys):
    """Order-preserving int codes of the (level, grid, tile) rows of each
    (n, 3) array, comparable across the arrays."""
    dims = np.max([k.max(axis=0, initial=0) for k in keys], axis=0) + 1
    return [np.ravel_multi_index(k.T, dims) for k in keys]


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
    bridge the two with temporary FabArrays.  Like FabArray's arena, one
    store holds every rank's particles in-process (see the module notes);
    ownership is the distribution map's say, and cross-rank motion runs
    through a Transport.
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
        self.epoch = 0
        self._next = [0] * self.nranks
        self._layouts = _LayoutCache()
        self._set_rows(
            np.zeros(0, dtype=_aos_dtype(dim)),
            np.zeros((self.nreal, 0)),
            np.zeros((self.nint, 0), dtype=np.int64),
            np.zeros((0, 3), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )

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

    def _set_rows(self, aos, rdata, idata, keys, starts):
        """Make these rows the store.  They come sorted by tile key and by
        id within a tile; keys (T, 3) holds the non-empty tiles' (level,
        grid, tile) and starts (T + 1) their CSR row offsets."""
        self.aos, self.rdata, self.idata = aos, rdata, idata
        self.keys, self.starts = keys, starts
        bounds = starts.tolist()
        self.tiles = {
            k: ParticleTile(self, k, a, b)
            for k, a, b in zip(map(tuple, keys.tolist()), bounds, bounds[1:])
        }

    def _row_keys(self):
        """(level, grid, tile) of every store row, (n, 3)."""
        return np.repeat(self.keys, np.diff(self.starts), axis=0)

    def sorted_keys(self):
        return sorted(self.tiles)

    def total_valid(self):
        return int((self.aos["id"] > 0).sum())

    def all_ids(self):
        return np.sort(self.aos["id"])

    def id_positions(self):
        """Mapping id -> position tuple over every stored particle."""
        return {
            i: tuple(p) for i, p in zip(self.aos["id"].tolist(), self.aos["pos"].tolist())
        }

    def tile_layout(self, level):
        """BoxArray of every tile region on a level, and its (grid, tile)
        keys as an (ntiles, 2) array."""
        ba = self.bas[level]
        token = (level, ba.uid, self.tile_size.coords)

        def build():
            # max_size chops each grid from its lo corner in tile id order
            b = ba.bounds()
            ntiles = (-(-(b[:, 1] - b[:, 0] + 1) // self.tile_size)).prod(axis=1)
            grid = np.repeat(np.arange(len(ba)), ntiles)
            tid = np.arange(grid.shape[0]) - np.repeat(np.cumsum(ntiles) - ntiles, ntiles)
            return ba.max_size(self.tile_size), np.stack([grid, tid], axis=1)

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
        key = np.column_stack([levels, grids, _tile_ids(self, levels, grids, cells)])
        _store_rows(
            self,
            _concat_records([self.aos, aos]),
            np.concatenate([self.rdata, rdata], axis=1),
            np.concatenate([self.idata, idata], axis=1),
            np.concatenate([self._row_keys(), key]),
            np.arange(self.aos.shape[0] + n),
        )
        self.epoch += 1


def _store_rows(pc, aos, rdata, idata, key, rows):
    """Make the given rows of these columns the store, in (level, grid,
    tile, id) order (key holds each row's level, grid and tile); rows
    that tie keep their order in rows."""
    (code,) = _codes(key[rows])
    order = np.lexsort((aos["id"][rows], code))
    first = np.flatnonzero(np.diff(code[order], prepend=-1))
    order = rows[order]
    pc._set_rows(
        np.take(aos, order), rdata[:, order], idata[:, order],
        key[order[first]], np.append(first, order.shape[0]),
    )


def _concat_records(parts):
    """np.concatenate of record arrays of one dtype, read as raw records:
    numpy would otherwise promote the fields of every array."""
    raw = np.dtype((np.void, parts[0].dtype.itemsize))
    return np.concatenate([p.view(raw) for p in parts]).view(parts[0].dtype)


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


def check_locations(pc):
    """Violations of `stored bucket == locate result` over every particle,
    as (id, stored key, located key) in stored order."""
    if not pc.aos.shape[0]:
        return []
    ids = pc.aos["id"]
    levels, grids, cells, _ = _locate_arrays(pc, pc.aos["pos"], ids)
    tids = _tile_ids(pc, levels, grids, cells)
    slev, sgrid, stid = pc._row_keys().T
    bad = np.flatnonzero((levels != slev) | (grids != sgrid) | (tids != stid))
    cols = (ids, slev, sgrid, stid, levels, grids, tids)
    return [(r[0], r[1:4], r[4:]) for r in zip(*(c[bad].tolist() for c in cols))]


def _tile_bounds(pc, level, grids, tids):
    """(n, 2, D) lo/hi corners of the tiles (grids[i], tids[i]) on a level."""
    layout, keys = pc.tile_layout(level)
    return layout.bounds()[np.searchsorted(keys[:, 0], grids) + tids]


def _outside_tiles(pc, key, pos, grow):
    """Per row: whether the cell at pos lies outside the region, grown by
    grow cells, of the tile key names (level, grid, tile)."""
    out = np.zeros(key.shape[0], dtype=bool)
    for lev in range(pc.nlevels):
        sel = np.flatnonzero(key[:, 0] == lev)
        b = _tile_bounds(pc, lev, key[sel, 1], key[sel, 2])
        cells = _cells_at(pc.geoms[lev], pos[sel])
        out[sel] = ((cells < b[:, 0] - grow) | (cells > b[:, 1] + grow)).any(axis=1)
    return out


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

    The store is located in one batch.  Movers to another rank travel as
    one block per (source tile, destination tile), sliced from one
    gathered array, in one message per rank pair; a position no level
    covers raises before any particle moves.  One stable sort then
    rebuilds the store from the stayers, the movers that stayed on their
    rank and the arrivals, in that order, so repeated ids inside a tile
    keep that order.
    """
    if mode not in ("local", "global"):
        raise ValueError("mode must be 'local' or 'global'")
    if transport is None:
        transport = Transport(pc.nranks)
    aos = pc.aos
    key = pc._row_keys()
    valid = aos["id"] > 0
    if mode == "local":
        kk = _default_local_k(pc) if k is None else int(k)
        bad = valid & _outside_tiles(pc, key, aos["pos"], kk)
        if bad.any():
            raise ParticleError("local-mode displacement bound exceeded", aos["id"][bad])

    place = valid.copy()  # the rows to locate
    if subcycle is not None:
        band = int(subcycle.get("band", 0))
        sub = np.flatnonzero(valid & np.isin(key[:, 0], [int(x) for x in subcycle["levels"]]))
        place[sub] = _outside_tiles(pc, key[sub], aos["pos"][sub], band)
    rows = np.flatnonzero(place)
    pc.epoch += 1
    levels, grids, cells, wrapped = _locate_arrays(pc, aos["pos"][rows], aos["id"][rows])
    aos["pos"][rows] = wrapped
    dest = key.copy()
    tids = _tile_ids(pc, levels, grids, cells)
    dest[rows] = np.column_stack([levels, grids, tids])
    was = key[rows]
    moving = rows[(levels != was[:, 0]) | (grids != was[:, 1]) | (tids != was[:, 2])]
    if not moving.shape[0] and valid.all():
        return
    src_rank = _ranks(pc, key[moving, 0], key[moving, 1])
    dst_rank = _ranks(pc, dest[moving, 0], dest[moving, 1])
    far = src_rank != dst_rank
    remote = moving[far]
    # one block per (source tile, destination tile); stable, so rows keep
    # their store order inside a block
    tile = np.searchsorted(pc.starts, remote, side="right")
    order = np.lexsort((dest[remote, 2], dest[remote, 1], dest[remote, 0], tile))
    out_rows, tile = remote[order], tile[order]
    pair = np.column_stack([src_rank, dst_rank])[far][order]
    m_aos, m_r, m_i = np.take(aos, out_rows), pc.rdata[:, out_rows], pc.idata[:, out_rows]
    d = dest[out_rows]
    starts, ends = _runs(tile, d[:, 0], d[:, 1], d[:, 2])
    outbox = {}
    for i, j, dkey, ranks in zip(starts, ends, d[starts].tolist(), pair[starts].tolist()):
        entry = (tuple(dkey), m_aos[i:j], m_r[:, i:j], m_i[:, i:j])
        outbox.setdefault(tuple(ranks), _Packed()).append(entry)
    arrived = _exchange(transport, outbox, "redistribute")

    n = aos.shape[0]
    cols = (aos, pc.rdata, pc.idata, dest)
    if arrived:
        sizes = [e[1].shape[0] for e in arrived]
        cols = (
            _concat_records([aos] + [e[1] for e in arrived]),
            np.concatenate([pc.rdata] + [e[2] for e in arrived], axis=1),
            np.concatenate([pc.idata] + [e[3] for e in arrived], axis=1),
            np.concatenate([dest, np.repeat([e[0] for e in arrived], sizes, axis=0)]),
        )
    stay = valid.copy()
    stay[moving] = False
    local = moving[~far]
    _store_rows(
        pc, *cols, np.concatenate([np.flatnonzero(stay), local, np.arange(n, cols[0].shape[0])])
    )
    counters.incr("particles_redistributed", moving.shape[0])


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
    """(level, grid, tile, slot, id) columns of every store row."""
    slot = np.arange(pc.aos.shape[0]) - np.repeat(pc.starts[:-1], np.diff(pc.starts))
    return np.column_stack([pc._row_keys(), slot, pc.aos["id"]])


def _owner_rows(pc, key, slot):
    """Store row of each particle named by its tile key (n, 3) and slot."""
    tiles, owners = _codes(pc.keys, key)
    return pc.starts[np.searchsorted(tiles, owners)] + slot


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
    own, own_pos, own_r = _stored(pc), pc.aos["pos"], pc.rdata.T
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
    owner = np.column_stack([halo.level, halo.src_grid, halo.src_tile])
    row = _owner_rows(pc, owner, halo.src_slot)
    dx = np.array([g.cell_size for g in pc.geoms])[halo.level]
    idx, fresh_pos, fresh_r = _route(
        transport,
        _ranks(pc, halo.level, halo.src_grid),
        _ranks(pc, halo.level, halo.grid),
        (np.arange(halo.total), pc.aos["pos"][row] + halo.shift * dx, pc.rdata[:, row].T),
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
    # one np.add.at, additions in the order of the sorted keys
    np.add.at(pc.rdata[comp], _owner_rows(pc, keys[:, :3], keys[:, 3]), vals[order])


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
    """Candidate pairs from cutoff-sized bins over each tile's owned+halo
    particles, kept where the predicate holds (default: distance <= cutoff).

    One pair search covers the container: every tile's owned particles and
    then its halo copies form one segment, binned over the tile region
    grown by the halo width, and pairs never cross segments.
    """
    _require_fresh(pc, halo)
    cutoff = float(cutoff)
    nl = NeighborList(cutoff)
    ntiles = pc.keys.shape[0]
    if not ntiles:
        return nl
    lo = np.empty((ntiles, pc.dim))
    hi = np.empty((ntiles, pc.dim))
    for lev in range(pc.nlevels):
        on = np.flatnonzero(pc.keys[:, 0] == lev)
        if not on.shape[0]:
            continue
        geom = pc.geoms[lev]
        dx = np.asarray(geom.cell_size)
        if halo.nghost * float(dx.min()) < cutoff:
            raise ParticleError(
                f"halo nghost={halo.nghost} too small for cutoff {cutoff}"
            )
        b = _tile_bounds(pc, lev, pc.keys[on, 1], pc.keys[on, 2])
        b = b - np.asarray(geom.domain.lo.coords)
        plo = np.asarray(geom.prob_lo)
        lo[on] = plo + (b[:, 0] - halo.nghost) * dx
        hi[on] = plo + (b[:, 1] + 1 + halo.nghost) * dx
    # each tile's halo rows: the halo is sorted by holder key, as the store
    code, tile_code = _codes(np.column_stack([halo.level, halo.grid, halo.tile]), pc.keys)
    h0 = np.searchsorted(code, tile_code)
    n_own = np.diff(pc.starts)
    n_halo = np.searchsorted(code, tile_code, side="right") - h0
    nstore = pc.aos.shape[0]
    rows = _ranges(
        np.stack([pc.starts[:-1], nstore + h0], axis=1).reshape(-1),
        np.stack([n_own, n_halo], axis=1).reshape(-1),
    )
    pos = np.concatenate([pc.aos["pos"], halo.pos])[rows]
    ids = np.concatenate([pc.aos["id"], halo.ids])[rows]
    size = n_own + n_halo
    seg = np.repeat(np.arange(ntiles), size)
    if predicate is None:
        pairs = kernels.neighbor_pairs(pos, lo, hi, cutoff, segment=seg)
    else:
        pairs = kernels.neighbor_pairs(pos, lo, hi, cutoff, max_dist=np.inf, segment=seg)
        if pairs.shape[0]:
            keep = predicate(pos[pairs[:, 0]], pos[pairs[:, 1]])
            pairs = pairs[np.asarray(keep, dtype=bool)]
    # both directions of each pair whose end is owned, in segment-local rows
    first = np.cumsum(size) - size
    t = seg[pairs[:, 0]]
    a, b = pairs[:, 0] - first[t], pairs[:, 1] - first[t]
    fwd, back = a < n_own[t], b < n_own[t]
    t = np.concatenate([t[fwd], t[back]])
    src = np.concatenate([a[fwd], b[back]])
    dst = np.concatenate([b[fwd], a[back]])
    order = np.lexsort((dst, src, t))
    dst = dst[order]
    # per owned particle (store row), its first entry in dst
    count = np.bincount(pc.starts[t] + src, minlength=nstore)
    at = np.concatenate([[0], np.cumsum(count)]).astype(np.int64)
    bounds = pc.starts.tolist()
    for i, key in enumerate(pc.tiles):
        r0, r1 = bounds[i], bounds[i + 1]
        nl.tiles[key] = _TileList(
            at[r0 : r1 + 1] - at[r0],
            dst[at[r0] : at[r1]],
            ids[first[i] : first[i] + size[i]],
            r1 - r0,
        )
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


def _level_particles(pc, level):
    """The level's run of the store: its tiles' (level, grid, tile) keys,
    their particle counts, and the run's rows as a slice."""
    t0, t1 = np.searchsorted(pc.keys[:, 0], [level, level + 1])
    return pc.keys[t0:t1], np.diff(pc.starts[t0 : t1 + 1]), slice(pc.starts[t0], pc.starts[t1])


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
    filled by one kernel call over the level's run of the store; one
    np.add.at then folds them into the arena buffer after
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
    keys, counts, rows = _level_particles(pc, level)
    if keys.shape[0]:
        pos = pc.aos["pos"][rows]
        w = np.ones(pos.shape[0]) if weight is None else pc.rdata[int(weight), rows]
        lo, ext, size, start, first, fold = _deposit_layout(pc, level, radius, target)
        tiles = first[keys[:, 1]] + keys[:, 2]
        seg = np.cumsum(size[tiles]) - size[tiles]
        buf = np.zeros(int(seg[-1] + size[tiles[-1]]), dtype=target.dtype)
        box = _per_particle(geom, counts, lo[tiles], _c_strides(ext[tiles]), seg)
        plo, dxinv = _frame(geom)
        if kernel == "cic":
            kernels.deposit_cic(pos, w, plo, dxinv, box[0], buf, *box[1:])
        else:
            np.add.at(buf, _ngp_index(plo, dxinv, pos, *box), w)
        if tiles.shape[0] < size.shape[0]:  # some tiles are empty
            fold = fold[_ranges(start[tiles], size[tiles])]
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
    keys, counts, rows = _level_particles(pc, level)
    if not keys.shape[0]:
        return {}
    grids = keys[:, 1]
    box = _per_particle(
        geom, counts, src.glo[grids], _c_strides(src.gext[grids]), src.offsets[grids]
    )
    pos = pc.aos["pos"][rows]
    plo, dxinv = _frame(geom)
    if kernel == "cic":
        vals = kernels.gather_cic(pos, plo, dxinv, box[0], src.arena, *box[1:])
    else:
        vals = src.arena[_ngp_index(plo, dxinv, pos, *box)]
    if out_comp is not None:
        pc.rdata[int(out_comp), rows] = vals
    ends = np.cumsum(counts).tolist()
    return {k: vals[a:b] for k, a, b in zip(map(tuple, keys.tolist()), [0] + ends[:-1], ends)}


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
