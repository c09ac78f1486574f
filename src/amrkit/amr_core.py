"""The level hierarchy: geometry, tagging, clustering, nesting, regridding.

Grids for a finer level are generated from tagged cells by recursive
signature clustering: tag counts are projected onto each dimension, the
box is cut at the widest zero-signature hole (or, failing that, at the
strongest inflection of the second difference), and the halves shrink to
their tag bounding boxes until every box is efficient enough.  Generated
grids are constrained to the blocking lattice, chopped to max_grid_size,
and clipped so they nest inside the coarser level with a buffer of coarse
cells, except where they touch the physical domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import coarse_fine
from .boxarray import BoxArray
from .distribution import DistributionMapping, default_costs, sfc_distribute
from .fabarray import FabArray, parallel_copy
from .index_space import Box, IndexType, IntVect, as_intvect


class Geometry:
    """Maps the integer index space of one level to physical coordinates."""

    __slots__ = ("domain", "prob_lo", "prob_hi", "cell_size", "periodic")

    def __init__(self, domain, prob_lo, prob_hi, periodic=None):
        if not domain.ixtype.is_cell():
            raise ValueError("domain must be cell-typed")
        self.domain = domain
        self.prob_lo = tuple(float(x) for x in prob_lo)
        self.prob_hi = tuple(float(x) for x in prob_hi)
        ext = domain.extents()
        self.cell_size = tuple(
            (h - l) / e for l, h, e in zip(self.prob_lo, self.prob_hi, ext)
        )
        if any(cs <= 0 for cs in self.cell_size):
            raise ValueError("physical extents must be positive")
        if periodic is None:
            periodic = (False,) * domain.dim
        elif isinstance(periodic, bool):
            periodic = (periodic,) * domain.dim
        self.periodic = tuple(bool(p) for p in periodic)

    @property
    def dim(self):
        return self.domain.dim

    def refine(self, ratio):
        return Geometry(self.domain.refine(ratio), self.prob_lo, self.prob_hi, self.periodic)

    def cell_center(self, iv):
        return tuple(
            self.prob_lo[d] + (iv[d] - self.domain.lo[d] + 0.5) * self.cell_size[d]
            for d in range(self.dim)
        )

    def __repr__(self):
        return f"Geometry({self.domain!r}, dx={self.cell_size}, periodic={self.periodic})"


class BoundaryRecord:
    """Physical boundary condition per dimension and side.

    Conditions: 'periodic', 'external' (fixed value), 'extrap' (copy the
    nearest interior value outward).  Periodic entries must agree with the
    Geometry's periodic flags.
    """

    CONDITIONS = ("periodic", "external", "extrap")

    def __init__(self, lo, hi, external_value=0.0):
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.external_value = float(external_value)
        for side in (self.lo, self.hi):
            for c in side:
                if c not in self.CONDITIONS:
                    raise ValueError(f"unknown boundary condition {c!r}")

    @staticmethod
    def all_extrap(dim):
        return BoundaryRecord(("extrap",) * dim, ("extrap",) * dim)

    def check_against(self, geom):
        for d in range(geom.dim):
            per = self.lo[d] == "periodic" or self.hi[d] == "periodic"
            if per != geom.periodic[d]:
                raise ValueError(
                    f"dimension {d}: boundary record says periodic={per} "
                    f"but geometry says {geom.periodic[d]}"
                )
        return True


def apply_domain_boundary(fa, geom, record):
    """Fill ghost cells outside the physical domain per the boundary record.

    Periodic dimensions are left to fill_boundary; external sides take the
    record's fixed value; extrap sides copy the nearest in-domain plane.
    """
    record.check_against(geom)
    dom = geom.domain
    for i in range(len(fa.ba)):
        f = fa.fab(i)
        g = f.gbox
        for d in range(fa.dim):
            for side, cond in (("lo", record.lo[d]), ("hi", record.hi[d])):
                if cond == "periodic":
                    continue
                if side == "lo":
                    width = dom.lo[d] - g.lo[d]
                    if width <= 0:
                        continue
                    outside = [slice(None)] * fa.dim
                    outside[d] = slice(0, width)
                    edge = [slice(None)] * fa.dim
                    edge[d] = slice(width, width + 1)
                else:
                    width = g.hi[d] - dom.hi[d]
                    if width <= 0:
                        continue
                    n = g.extents()[d]
                    outside = [slice(None)] * fa.dim
                    outside[d] = slice(n - width, n)
                    edge = [slice(None)] * fa.dim
                    edge[d] = slice(n - width - 1, n - width)
                target = f.data[(slice(None),) + tuple(outside)]
                if cond == "external":
                    target[...] = record.external_value
                else:
                    target[...] = f.data[(slice(None),) + tuple(edge)]


# ---------------------------------------------------------------------------
# grid generation parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridGenParams:
    dim: int
    max_level: int = 1
    max_grid_size: object = 32
    blocking_factor: object = 8
    grid_efficiency: float = 0.7
    ref_ratio: object = 2
    n_error_buf: int = 1
    nesting_buffer: int = 1

    def __post_init__(self):
        mgs = as_intvect(self.max_grid_size, self.dim)
        bf = as_intvect(self.blocking_factor, self.dim)
        rr = self.ref_ratio
        if isinstance(rr, int):
            rr = [rr] * max(self.max_level, 1)
        ratios = tuple(as_intvect(r, self.dim) for r in rr)
        if len(ratios) < self.max_level:
            ratios = ratios + (ratios[-1],) * (self.max_level - len(ratios))
        object.__setattr__(self, "max_grid_size", mgs)
        object.__setattr__(self, "blocking_factor", bf)
        object.__setattr__(self, "ref_ratio", ratios)
        for d in range(self.dim):
            if mgs[d] % bf[d] != 0:
                raise ValueError("blocking_factor must divide max_grid_size")
            for r in ratios:
                if r[d] < 1:
                    raise ValueError("refinement ratio must be >= 1")
                if bf[d] % r[d] != 0:
                    raise ValueError(
                        "refinement ratio must divide blocking_factor so the "
                        "coarse clustering lattice stays integral"
                    )
        if not 0 < self.grid_efficiency <= 1:
            raise ValueError("grid_efficiency must lie in (0, 1]")

    @staticmethod
    def from_config(cfg, dim):
        def iv(key, default):
            v = cfg.get_int_list(key)
            if v is None:
                return default
            return IntVect(v if len(v) > 1 else v * dim)

        max_level = cfg.get_int("amr.max_level", 1)
        rr = cfg.get_int_list("amr.ref_ratio", [2])
        return GridGenParams(
            dim=dim,
            max_level=max_level,
            max_grid_size=iv("amr.max_grid_size", IntVect((32,) * dim)),
            blocking_factor=iv("amr.blocking_factor", IntVect((8,) * dim)),
            grid_efficiency=cfg.get_float("amr.grid_eff", 0.7),
            ref_ratio=rr if len(rr) > 1 else rr[0],
            n_error_buf=cfg.get_int("amr.n_error_buf", 1),
        )


# ---------------------------------------------------------------------------
# tag clustering
# ---------------------------------------------------------------------------


def _tags_to_array(tags):
    pts = sorted(tuple(t) for t in tags)
    return np.array(pts, dtype=np.int64).reshape(len(pts), -1)


def _aligned_bbox(pts, domain_lo, align, domain):
    """Tag bounding box snapped outward to the alignment lattice, clipped to
    the domain (domain edges are always lattice-compatible cut points)."""
    dim = pts.shape[1]
    lo = []
    hi = []
    for d in range(dim):
        a = align[d]
        tlo = int(pts[:, d].min())
        thi = int(pts[:, d].max())
        alo = domain_lo[d] + ((tlo - domain_lo[d]) // a) * a
        ahi = domain_lo[d] + (-((-(thi + 1 - domain_lo[d])) // a)) * a - 1
        lo.append(max(alo, domain.lo[d]))
        hi.append(min(ahi, domain.hi[d]))
    return Box(IntVect(lo), IntVect(hi))


def _signature(pts, box, d):
    ext = box.hi[d] - box.lo[d] + 1
    return np.bincount(pts[:, d] - box.lo[d], minlength=ext)


def _choose_cut(pts, box, align, domain_lo):
    """Pick a cut plane: widest zero-signature hole first, else strongest
    inflection of the signature's second difference.  Cut positions are
    restricted to the alignment lattice.  Returns (dim, cut) or None."""
    dim = box.dim
    best_hole = None  # (width, d, cut)
    for d in range(dim):
        a = align[d]
        sig = _signature(pts, box, d)
        i = 0
        while i < len(sig):
            if sig[i] == 0:
                j = i
                while j < len(sig) and sig[j] == 0:
                    j += 1
                # hole spans planes [i, j); usable cuts lie in [i, j] (a cut
                # at c splits into [lo, c) and [c, hi]), aligned, interior
                lo_cut = box.lo[d] + i
                hi_cut = box.lo[d] + j
                c0 = max(lo_cut, box.lo[d] + 1)
                c1 = min(hi_cut, box.hi[d])
                mid = (lo_cut + hi_cut) // 2
                cut = _nearest_aligned(mid, c0, c1, a, domain_lo[d])
                if cut is not None:
                    width = j - i
                    key = (-width, d, cut)
                    if best_hole is None or key < best_hole[0]:
                        best_hole = (key, d, cut)
                i = j
            else:
                i += 1
    if best_hole is not None:
        return best_hole[1], best_hole[2]
    best_infl = None  # (-strength, distance-from-middle, d, cut)
    for d in range(dim):
        a = align[d]
        sig = _signature(pts, box, d)
        if len(sig) < 2:
            continue
        lap = np.zeros(len(sig), dtype=np.int64)
        lap[1:-1] = sig[:-2] - 2 * sig[1:-1] + sig[2:]
        middle = box.lo[d] + len(sig) // 2
        for i in range(len(sig) - 1):
            cut = box.lo[d] + i + 1
            if (cut - domain_lo[d]) % a != 0:
                continue
            strength = abs(int(lap[i + 1]) - int(lap[i]))
            key = (-strength, abs(cut - middle), d, cut)
            if best_infl is None or key < best_infl[0]:
                best_infl = (key, d, cut)
    if best_infl is not None:
        return best_infl[1], best_infl[2]
    return None


def _nearest_aligned(target, c0, c1, a, origin):
    """Aligned value nearest target within [c0, c1], or None."""
    if c0 > c1:
        return None
    t = origin + round((target - origin) / a) * a
    candidates = sorted({t - a, t, t + a})
    best = None
    for c in candidates:
        if c0 <= c <= c1 and (c - origin) % a == 0:
            if best is None or abs(c - target) < abs(c - best):
                best = c
    if best is not None:
        return best
    # walk outward to the closest aligned point inside the window
    lo_al = origin + (-((origin - c0) // a)) * a if c0 > origin else origin + ((c0 - origin + a - 1) // a) * a
    if lo_al < c0:
        lo_al += a
    return lo_al if c0 <= lo_al <= c1 else None


def cluster_tags(tags, params, level_domain, level=0, max_extent=None):
    """Cover every tagged cell with efficient, lattice-aligned boxes.

    The output lives at the tag level; boxes are aligned so that refining
    by ref_ratio[level] lands on the blocking_factor lattice, and no box
    exceeds max_extent (defaults to max_grid_size at this level's measure).
    """
    tags = list(tags)
    if not tags:
        return BoxArray([], IndexType.cell(params.dim))
    pts = _tags_to_array(tags)
    ratio = params.ref_ratio[level] if level < len(params.ref_ratio) else params.ref_ratio[-1]
    align = IntVect(
        max(params.blocking_factor[d] // ratio[d], 1) for d in range(params.dim)
    )
    if max_extent is None:
        max_extent = IntVect(
            max(params.max_grid_size[d] // ratio[d], align[d]) for d in range(params.dim)
        )
    dom_lo = level_domain.lo
    outside = ((pts < level_domain.lo) | (pts > level_domain.hi)).any(axis=1)
    if outside.any():
        t = pts[outside.argmax()]
        raise ValueError(f"tag {tuple(t.tolist())} outside the level domain")

    out = []

    def recurse(pts):
        box = _aligned_bbox(pts, dom_lo, align, level_domain)
        eff = len(pts) / box.num_cells()
        oversize = [d for d in range(params.dim) if box.extents()[d] > max_extent[d]]
        if eff >= params.grid_efficiency and not oversize:
            out.append(box)
            return
        cut = None
        if oversize:
            # forced split of the most oversize dimension at its aligned middle
            d = max(oversize, key=lambda d: box.extents()[d])
            mid = box.lo[d] + box.extents()[d] // 2
            c = _nearest_aligned(mid, box.lo[d] + 1, box.hi[d], align[d], dom_lo[d])
            if c is not None:
                cut = (d, c)
        if cut is None:
            cut = _choose_cut(pts, box, align, dom_lo)
        if cut is None:
            out.append(box)  # minimal aligned box, accepted as-is
            return
        d, c = cut
        left = pts[pts[:, d] < c]
        right = pts[pts[:, d] >= c]
        if len(left) == 0 or len(right) == 0:
            # realign produced no progress; accept to guarantee termination
            out.append(box)
            return
        recurse(left)
        recurse(right)

    recurse(pts)
    out.sort(key=lambda b: (b.lo, b.hi))
    return BoxArray(out, IndexType.cell(params.dim))


# ---------------------------------------------------------------------------
# proper nesting
# ---------------------------------------------------------------------------


def _bounds_to_mask(bounds, region):
    """Boolean mask over region of the cells inside any of the (N, 2, D)
    lo/hi boxes."""
    mask = np.zeros(tuple(region.extents()), dtype=bool)
    lo = np.maximum(bounds[:, 0], region.lo) - region.lo
    hi = np.minimum(bounds[:, 1], region.hi) - region.lo
    meets = (lo <= hi).all(axis=1)
    for l, h in zip(lo[meets].tolist(), hi[meets].tolist()):
        mask[tuple(slice(a, b + 1) for a, b in zip(l, h))] = True
    return mask


def _mask_rectangles(mask):
    """Greedy decomposition of a boolean mask into disjoint index rectangles."""
    work = mask.copy()
    out = []
    while work.any():
        first = np.unravel_index(int(np.argmax(work)), work.shape)
        lo = list(first)
        hi = list(first)
        for d in reversed(range(work.ndim)):
            while hi[d] + 1 < work.shape[d]:
                probe = tuple(
                    slice(lo[k], hi[k] + 1) if k != d else slice(hi[d] + 1, hi[d] + 2)
                    for k in range(work.ndim)
                )
                if work[probe].all():
                    hi[d] += 1
                else:
                    break
        region = tuple(slice(lo[k], hi[k] + 1) for k in range(work.ndim))
        work[region] = False
        out.append((tuple(lo), tuple(hi)))
    return out


def nesting_ok(fine, coarse, ratio, domain, buffer):
    """Check: every fine box, coarsened and grown by buffer, is covered by
    the coarse collection within the domain (outside is exempt)."""
    dom_c = domain
    for f in fine:
        probe = f.coarsen(ratio).grow(buffer).intersect(dom_c)
        if not coarse.contains_box(probe):
            return False
    return True


def enforce_proper_nesting(fine, coarse, ratio, domain, buffer=1, block=None):
    """Clip fine boxes so they nest inside the coarse collection.

    A coarse cell is admissible when its whole buffer neighborhood is
    covered by coarse boxes (cells outside the physical domain count as
    covered).  Fine boxes are intersected with the admissible region,
    decomposed on the block lattice so alignment survives; uncoverable
    pieces are dropped with a warning count in the return metadata.
    """
    if buffer < 1:
        raise ValueError("nesting buffer must be >= 1")
    dim = domain.dim
    ratio = as_intvect(ratio, dim)
    if block is None:
        block = IntVect.unit(dim)
    else:
        block = as_intvect(block, dim)
    if not len(fine):
        return fine
    covered = _bounds_to_mask(coarse.bounds(), domain)
    # erode: admissible iff the (2*buffer+1)^D window is covered, where
    # out-of-domain samples count as covered (physical boundary exemption)
    padded = np.pad(covered, buffer, constant_values=True)
    admissible = np.ones_like(covered)
    for offs in np.ndindex(*(2 * buffer + 1,) * dim):
        sl = tuple(
            slice(offs[d], offs[d] + covered.shape[d]) for d in range(dim)
        )
        admissible &= padded[sl]
    # coarsen the admissible mask onto the block lattice: a block survives
    # only if admissible everywhere, so clipped boxes stay lattice-aligned
    block_c = IntVect(max(block[d] // ratio[d], 1) for d in range(dim))
    nblocks = tuple(
        -(-covered.shape[d] // block_c[d]) for d in range(dim)
    )
    block_ok = np.ones(nblocks, dtype=bool)
    for bidx in np.ndindex(*nblocks):
        sl = tuple(
            slice(bidx[d] * block_c[d], min((bidx[d] + 1) * block_c[d], covered.shape[d]))
            for d in range(dim)
        )
        block_ok[bidx] = bool(admissible[sl].all())
    out = []
    fb = fine.bounds()
    fc = fb // np.array(ratio)
    dlo, bc = np.array(domain.lo), np.array(block_c)
    # block index range of each fine box's coarse image
    blo, bhi = (fc[:, 0] - dlo) // bc, (fc[:, 1] - dlo) // bc
    for box, cbox, l, h in zip(fb.tolist(), fc.tolist(), blo.tolist(), bhi.tolist()):
        sub = block_ok[tuple(slice(a, b + 1) for a, b in zip(l, h))]
        if sub.all():
            out.append(box)
            continue
        for rlo, rhi in _mask_rectangles(sub):
            clo = [domain.lo[d] + (l[d] + rlo[d]) * block_c[d] for d in range(dim)]
            chi = [domain.lo[d] + (l[d] + rhi[d] + 1) * block_c[d] - 1 for d in range(dim)]
            # the block rectangle clipped to the coarse image, refined, and
            # clipped to the fine box
            plo = [max(max(a, c) * r, f) for a, c, r, f in zip(clo, cbox[0], ratio, box[0])]
            phi = [
                min((min(a, c) + 1) * r - 1, f) for a, c, r, f in zip(chi, cbox[1], ratio, box[1])
            ]
            if all(a <= b for a, b in zip(plo, phi)):
                out.append([plo, phi])
    out.sort()
    return BoxArray(np.array(out, dtype=np.int64).reshape(-1, 2, dim), fine.ixtype, validate=False)


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------


@dataclass
class _LevelState:
    geom: Geometry
    ba: BoxArray
    dm: DistributionMapping


class AmrHierarchy:
    """Per-level geometry, grids and rank assignments, plus registered fields.

    Level metadata is globally replicated (every simulated rank sees the
    same BoxArrays and DistributionMappings); only Fab data is rank-local.
    Registered fields are re-filled automatically on regrid: new boxes take
    interpolated coarse data first, then any old same-level data wins where
    the layouts overlap.
    """

    def __init__(self, geom0, params, nranks=1, distribute=None):
        self.params = params
        self.nranks = int(nranks)
        self.distribute = distribute or (
            lambda ba, nranks: sfc_distribute(ba, default_costs(ba), nranks)
        )
        ba0 = BoxArray([geom0.domain]).max_size(params.max_grid_size)
        for b in ba0:
            for d in range(params.dim):
                if b.extents()[d] % params.blocking_factor[d] != 0:
                    raise ValueError(
                        "base domain extents must be divisible by blocking_factor"
                    )
        self.levels = [_LevelState(geom0, ba0, self.distribute(ba0, self.nranks))]
        self.fields = {}  # name -> {"ncomp", "ngrow", "data": list[FabArray]}

    @property
    def dim(self):
        return self.params.dim

    @property
    def finest_level(self):
        return len(self.levels) - 1

    def geom(self, lev):
        return self.levels[lev].geom

    def ba(self, lev):
        return self.levels[lev].ba

    def dm(self, lev):
        return self.levels[lev].dm

    def define_field(self, name, ncomp=1, ngrow=0, dtype=np.float64):
        data = [
            FabArray(l.ba, l.dm, ncomp, ngrow, dtype) for l in self.levels
        ]
        self.fields[name] = {"ncomp": ncomp, "ngrow": ngrow, "dtype": dtype, "data": data}
        return data

    def field(self, name, lev):
        return self.fields[name]["data"][lev]

    # -- tagging helpers -----------------------------------------------------

    def _buffer_tags(self, tags, lev, radius):
        """Every cell within radius (per dimension) of a tag: a dilation of
        the tag mask over the tags' bounding box grown by radius, then
        wrapped on periodic axes and clipped to the domain on the others."""
        if radius <= 0:
            return set(tags)
        pts = np.array(list(tags), dtype=np.int64).reshape(-1, self.dim)
        if not len(pts):
            return set()
        lo = pts.min(axis=0) - radius
        mask = np.zeros(tuple(pts.max(axis=0) + radius - lo + 1), dtype=bool)
        mask[tuple((pts - lo).T)] = True
        for d in range(self.dim):
            grown = mask.copy()
            for k in range(1, radius + 1):
                up = tuple(slice(k, None) if e == d else slice(None) for e in range(self.dim))
                down = tuple(slice(None, -k) if e == d else slice(None) for e in range(self.dim))
                grown[up] |= mask[down]
                grown[down] |= mask[up]
            mask = grown
        cells = np.argwhere(mask) + lo
        dom = self.geom(lev).domain
        keep = np.ones(len(cells), dtype=bool)
        for d, (periodic, n) in enumerate(zip(self.geom(lev).periodic, dom.extents())):
            if periodic:
                cells[:, d] = dom.lo[d] + (cells[:, d] - dom.lo[d]) % n
            else:
                keep &= (cells[:, d] >= dom.lo[d]) & (cells[:, d] <= dom.hi[d])
        return {IntVect(c) for c in cells[keep].tolist()}

    # -- grid generation ------------------------------------------------------

    def make_new_grids(self, lev, tags):
        """Grids for level lev+1 from tag cells at level lev (already buffered)."""
        return self._fine_grids(lev, tags, self.ba(lev), self.geom(lev).domain)

    def _fine_grids(self, lev, tags, coarse_ba, domain):
        """Cluster tags at lev, refine, chop to max_grid_size and clip the
        result to nest in coarse_ba."""
        params = self.params
        ratio = params.ref_ratio[lev]
        clustered = cluster_tags(tags, params, domain, level=lev)
        fine = clustered.refine(ratio).max_size(params.max_grid_size)
        return enforce_proper_nesting(
            fine, coarse_ba, ratio, domain, params.nesting_buffer,
            block=params.blocking_factor,
        )

    def regrid(self, base, tag_fn, transport):
        """Rebuild levels base+1 .. max_level from fresh tags.

        tag_fn(lev, hier) returns an iterable of tagged IntVects at lev.
        Finer-level requirements are projected onto coarser tags first so
        the downward build can always nest; registered field data moves to
        the new layouts (coarse interpolation, then old-overlap copy).
        """
        params = self.params
        old_levels = self.levels
        old_finest = self.finest_level
        # upward pass: collect tags, projecting finer needs onto coarser levels
        tag_sets = {}
        highest = min(old_finest, params.max_level - 1)
        for lev in range(highest, base - 1, -1):
            tags = set(IntVect(t) if not isinstance(t, IntVect) else t
                       for t in tag_fn(lev, self))
            tags = self._buffer_tags(tags, lev, params.n_error_buf)
            if lev + 1 in tag_sets and tag_sets[lev + 1]:
                ratio = params.ref_ratio[lev]
                dom = self.geom(lev).domain
                proj = set()
                for t in tag_sets[lev + 1]:
                    c = IntVect(t[d] // ratio[d] for d in range(self.dim))
                    proj.add(c)
                proj = self._buffer_tags(proj, lev, params.nesting_buffer)
                tags |= {t for t in proj if dom.contains(t)}
            tag_sets[lev] = tags
        # downward pass: build each finer level nested in the new coarser one
        new_levels = [old_levels[l] for l in range(base + 1)]
        for lev in range(base, min(old_finest + 1, params.max_level)):
            tags = tag_sets.get(lev, set())
            if not tags:
                break
            coarse = new_levels[lev]
            fine_ba = self._fine_grids(lev, tags, coarse.ba, coarse.geom.domain)
            if not len(fine_ba):
                break
            fine_geom = coarse.geom.refine(params.ref_ratio[lev])
            fine_dm = self.distribute(fine_ba, self.nranks)
            new_levels.append(_LevelState(fine_geom, fine_ba, fine_dm))
        self.levels = new_levels
        self._refill_fields(old_levels, base, transport)
        return self

    def _refill_fields(self, old_levels, base, transport):
        for name, reg in self.fields.items():
            old_data = reg["data"]
            new_data = list(old_data[: base + 1])
            for lev in range(base + 1, len(self.levels)):
                st = self.levels[lev]
                fa = FabArray(st.ba, st.dm, reg["ncomp"], reg["ngrow"], reg["dtype"])
                crse = new_data[lev - 1]
                ratio = self.params.ref_ratio[lev - 1]
                coarse_fine.interp_to_fine(fa, crse, ratio, transport, method="pc")
                if lev <= len(old_data) - 1:
                    parallel_copy(fa, old_data[lev], transport)
                new_data.append(fa)
            reg["data"] = new_data
