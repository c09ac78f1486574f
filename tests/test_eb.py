"""Embedded geometry: implicit-function algebra, cut-cell moments, the
face-balance identity, small-cell redistribution, level sets, and pruning."""

import numpy as np
import pytest

from amrkit.amr_core import Geometry
from amrkit.boxarray import BoxArray
from amrkit.distribution import DistributionMapping
from amrkit.eb import (
    COVERED,
    CUT,
    REGULAR,
    EBLevelData,
    ImplicitFunction,
    box,
    build_level_set,
    classify,
    complement,
    compute_moments,
    covered_box_predicate,
    cylinder,
    difference,
    intersection,
    listing_csg,
    parse_csg,
    redistribute_small_cells,
    rotate,
    sphere,
    translate,
    union,
)
from amrkit.fabarray import FabArray, gather_global
from amrkit.index_space import Box, IntVect
from conftest import random_cover
import eb_reference


def _geom(n, dim=2, lo=-1.0, hi=1.0):
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    return Geometry(domain, (lo,) * dim, (hi,) * dim, (False,) * dim)


def _pts(rng, n, dim, lo=-1.0, hi=1.0):
    return lo + (hi - lo) * rng.random((n, dim))


# -- implicit-function algebra -------------------------------------------------


def test_csg_combinators_are_min_max(rng):
    p = _pts(rng, 500, 3)
    a = sphere(0.5, (0.1, 0.0, -0.2))
    b = box((-0.4, -0.4, -0.4), (0.3, 0.5, 0.4))
    assert np.array_equal(union(a, b)(p), np.maximum(a(p), b(p)))
    assert np.array_equal(intersection(a, b)(p), np.minimum(a(p), b(p)))
    assert np.array_equal(complement(a)(p), -a(p))
    assert np.array_equal(difference(a, b)(p), np.minimum(a(p), -b(p)))


def test_primitive_signs(rng):
    s = sphere(0.5, (0.0, 0.0))
    assert s(np.array([[0.0, 0.0]]))[0] > 0  # center is inside the body
    assert s(np.array([[0.9, 0.0]]))[0] < 0
    assert s(np.array([[0.5, 0.0]]))[0] == 0.0
    b = box((0.0, 0.0), (1.0, 1.0))
    assert b(np.array([[0.5, 0.5]]))[0] > 0
    assert b(np.array([[1.5, 0.5]]))[0] < 0
    c = cylinder(0.25, 2, (0.0, 0.0, 0.0))
    # axis coordinate is ignored: the shape is infinite along it
    assert c(np.array([[0.0, 0.0, 57.0]]))[0] > 0
    assert c(np.array([[0.3, 0.0, -3.0]]))[0] < 0


def test_translate_and_rotate(rng):
    p = _pts(rng, 400, 2)
    moved = translate(sphere(0.3, (0.0, 0.0)), (0.2, -0.1))
    direct = sphere(0.3, (0.2, -0.1))
    assert np.allclose(moved(p), direct(p), rtol=0, atol=1e-15)
    # quarter turn about the origin maps the body (x,y) -> (-y,x)
    b = box((0.0, -0.1), (0.5, 0.1))
    rb = rotate(b, 2, np.pi / 2)
    want = box((-0.1, 0.0), (0.1, 0.5))
    assert np.array_equal(np.sign(rb(p)), np.sign(want(p)))
    # rotating about a non-origin center keeps the center fixed
    rc = rotate(b, 2, 1.1, center=(0.25, 0.0))
    assert rc(np.array([[0.25, 0.0]]))[0] == pytest.approx(
        b(np.array([[0.25, 0.0]]))[0], abs=1e-15
    )


def test_parse_csg_matches_builtin_composite(rng):
    text = (
        "difference(intersection(sphere(0.5,(0,0,0)), box((-0.4,)*3, (0.4,)*3)),"
        " union(cylinder(0.25,0,(0,0,0)), cylinder(0.25,1,(0,0,0)),"
        " cylinder(0.25,2,(0,0,0))))"
    )
    parsed = parse_csg(text)
    builtin = listing_csg()
    p = _pts(rng, 2000, 3)
    assert np.array_equal(parsed(p), builtin(p))


def _lipschitz_bodies(dim):
    c = (0.1, -0.2, 0.05)[:dim]
    prims = [
        sphere(0.5, c),
        box((-0.4,) * dim, (0.3,) * dim),
        cylinder(0.3, 0, c),
        cylinder(0.25, dim - 1, (0.0,) * dim),
    ]
    a, b, cyl, _ = prims
    bodies = prims + [
        union(a, b, cyl),
        intersection(a, b),
        complement(a),
        difference(b, cyl),
        translate(difference(a, b), (0.2,) * dim),
        rotate(b, dim - 1, 0.7, center=c),
        rotate(union(b, complement(cyl)), 0, -1.3),
    ]
    if dim == 3:
        bodies += [
            listing_csg(),
            parse_csg(
                "difference(intersection(sphere(0.52, (0.1, -0.05, 0.0)), "
                "box((-0.3, -0.45, -0.4), (0.5, 0.35, 0.4))), union(cylinder(0.2, 0, "
                "(0.1, -0.05, 0.0)), rotate(cylinder(0.2, 1, (0, 0, 0)), 2, 0.3)))"
            ),
        ]
    else:
        bodies += [
            parse_csg("union(sphere(0.3, (0.2, 0.1)), rotate(box((0, 0), (0.5, 0.2)), 2, 1.0))"),
            parse_csg("complement(translate(difference(box((-1, -1), (1, 1)), "
                      "sphere(0.6, (0, 0))), (0.1, -0.3)))"),
        ]
    return bodies


@pytest.mark.parametrize("dim", [2, 3])
def test_lipschitz_bounds_hold(rng, dim):
    p = _pts(rng, 4000, dim, -1.5, 1.5)
    q = np.concatenate([
        _pts(rng, 2000, dim, -1.5, 1.5),
        p[2000:] + 0.01 * rng.normal(size=(2000, dim)),
    ])
    dist = np.sqrt(((p - q) ** 2).sum(axis=1))
    for f in _lipschitz_bodies(dim):
        assert f.lip == 1.0, f
        assert (np.abs(f(p) - f(q)) <= f.lip * dist * (1 + 1e-12)).all(), f


def test_user_functions_have_no_lipschitz_bound():
    user = ImplicitFunction(lambda p: 0.5 - np.abs(p).sum(axis=1))
    assert user.lip is None
    assert union(sphere(0.5, (0, 0)), user).lip is None
    assert complement(user).lip is None
    assert rotate(translate(user, (0.1, 0.0)), 2, 0.5).lip is None
    assert intersection(box((0, 0), (1, 1)), lambda p: p[:, 0]).lip is None


def test_parse_csg_rejects_arbitrary_code():
    with pytest.raises(ValueError):
        parse_csg("__import__('os').system('true')")
    with pytest.raises(ValueError):
        parse_csg("sphere(0.5, (0,0,0)) + 1")
    with pytest.raises(ValueError):
        parse_csg("0.5")


# -- moments -------------------------------------------------------------------


def test_half_cell_plane_moments():
    # plane through the middle of column 1: volfrac 1/2, unit face-balance
    # area, normal +x (fluid below the plane, body above in x)
    geom = _geom(4, dim=2, lo=0.0, hi=1.0)
    f = box((0.375, -10.0), (10.0, 10.0))
    ba = BoxArray([geom.domain])
    data = compute_moments(f, geom, ba, subsamples=4)
    flags = data.flags.fab(0).valid(0)
    vol = data.volfrac.fab(0).valid(0)
    assert (flags[0, :] == REGULAR).all()
    assert (flags[1, :] == CUT).all()
    assert (flags[2:, :] == COVERED).all()
    assert np.array_equal(vol[1, :], np.full(4, 0.5))
    assert np.array_equal(vol[0, :], np.ones(4))
    assert np.array_equal(vol[2:, :], np.zeros((2, 4)))
    area = data.eb_area.fab(0).valid(0)
    normal = data.eb_normal.fab(0).valid()
    assert np.array_equal(area[1, :], np.ones(4))
    assert np.array_equal(normal[0, 1, :], np.ones(4))
    assert np.array_equal(normal[1, 1, :], np.zeros(4))
    # fluid centroid of the cut column sits a quarter cell below center in x
    cent = data.centroid.fab(0).valid()
    assert np.allclose(cent[0, 1, :], -0.25, rtol=0, atol=1e-15)
    assert np.allclose(data.eb_centroid.fab(0).valid()[0, 1, :], 0.0, atol=1e-15)
    # face fractions: the cut column's low x-face is open, high x-face closed
    assert np.array_equal(data.area_lo.fab(0).valid()[0, 1, :], np.ones(4))
    assert np.array_equal(data.area_hi.fab(0).valid()[0, 1, :], np.zeros(4))


def test_flags_agree_with_volume_fractions(rng):
    geom = _geom(24, dim=2)
    f = union(sphere(0.45, (-0.2, 0.1)), box((0.0, -0.6), (0.7, 0.2)))
    ba = BoxArray([geom.domain]).max_size(8)
    data = compute_moments(f, geom, ba, subsamples=4)
    for g in range(len(ba)):
        flags = data.flags.fab(g).valid(0)
        vol = data.volfrac.fab(g).valid(0)
        area = data.eb_area.fab(g).valid(0)
        nrm = data.eb_normal.fab(g).valid()
        assert ((vol >= 0.0) & (vol <= 1.0)).all()
        assert np.array_equal(vol[flags == REGULAR], np.ones((flags == REGULAR).sum()))
        assert np.array_equal(vol[flags == COVERED], np.zeros((flags == COVERED).sum()))
        cut = flags == CUT
        assert (area[cut] > 0.0).all()
        assert np.allclose(np.sqrt((nrm[:, cut] ** 2).sum(axis=0)), 1.0, atol=1e-12)
        assert np.array_equal(area[~cut], np.zeros((~cut).sum()))


def test_face_balance_identity(rng):
    # |A_eb*n_d - (aLo_d - aHi_d)| <= 2/s per component on every cut cell
    s = 4
    geom = _geom(16, dim=3)
    f = sphere(0.55, (0.05, -0.1, 0.0))
    ba = BoxArray([geom.domain]).max_size(8)
    data = compute_moments(f, geom, ba, subsamples=s)
    checked = 0
    for g in range(len(ba)):
        flags = data.flags.fab(g).valid(0)
        cut = flags == CUT
        if not cut.any():
            continue
        v = data.area_lo.fab(g).valid() - data.area_hi.fab(g).valid()
        an = data.eb_area.fab(g).valid(0) * data.eb_normal.fab(g).valid()
        resid = np.abs(an - v)[:, cut]
        assert resid.max() <= 2.0 / s
        checked += int(cut.sum())
    assert checked > 100


def test_sphere_volume_two_dim(rng):
    geom = _geom(32, dim=2)
    f = sphere(0.5, (0.0, 0.0))
    ba = BoxArray([geom.domain]).max_size(8)
    data = compute_moments(f, geom, ba, subsamples=4)
    dx = geom.cell_size
    cellvol = dx[0] * dx[1]
    total = sum(
        data.volfrac.fab(g).valid(0).sum() for g in range(len(ba))
    ) * cellvol
    fluid = 4.0 - np.pi * 0.25  # square minus the disc
    assert abs(total - fluid) / fluid < 0.01


# -- certified moments against the whole-box reference ------------------------

_EXACT = ("flags", "volfrac", "area_lo", "area_hi", "eb_area", "eb_normal")
_CENTROIDS = ("centroid", "face_cent_lo", "face_cent_hi", "eb_centroid")


def _assert_same_moments(got, want, centroids_exact):
    assert got.diagnostics == want.diagnostics
    for name in _EXACT + _CENTROIDS:
        a, b = getattr(got, name), getattr(want, name)
        for g in range(len(got.ba)):
            x, y = a.fab(g).data, b.fab(g).data
            if centroids_exact or name in _EXACT:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, g)
            else:
                assert np.allclose(x, y, rtol=0.0, atol=1e-15), (name, g)


def _near_grid_body(rng, geom):
    """A random CSG body whose surfaces pass through, or within 1e-9 dx of,
    cell corners and faces, mixed with freely placed parts."""
    dim = geom.dim
    dx = geom.cell_size[0]
    n = geom.domain.extents()[0]

    def node(d):
        eps = float(rng.choice([0.0, 1e-9, -1e-9])) * dx
        return geom.prob_lo[d] + int(rng.integers(1, n)) * geom.cell_size[d] + eps

    def prim():
        kind = int(rng.integers(4))
        center = tuple(node(d) for d in range(dim))
        if kind == 0:
            r = int(rng.integers(2, n // 2)) * dx + float(rng.choice([0.0, 1e-9, -1e-9])) * dx
            return sphere(r, center)
        if kind == 1:
            lo = [node(d) for d in range(dim)]
            hi = [x + int(rng.integers(2, n // 2)) * dx for x in lo]
            return box(lo, hi)
        if kind == 2:
            return cylinder(float(rng.uniform(0.2, 0.5)), int(rng.integers(dim)), center)
        free = tuple(float(x) for x in rng.uniform(-0.4, 0.4, dim))
        return rotate(sphere(float(rng.uniform(0.3, 0.6)), free), dim - 1, float(rng.uniform(0, 3)))

    a, b, c = prim(), prim(), prim()
    body = [union(a, b), intersection(a, complement(b)), difference(union(a, c), b)][
        int(rng.integers(3))
    ]
    if rng.random() < 0.3:
        body = translate(body, tuple(int(rng.integers(-2, 3)) * dx for _ in range(dim)))
    return body


@pytest.mark.parametrize("dim,n", [(2, 20), (3, 10)])
def test_certified_moments_match_whole_box_reference(rng, dim, n):
    geom = _geom(n, dim=dim)
    layouts = [
        BoxArray([geom.domain]),
        BoxArray([geom.domain]).max_size(4 if dim == 3 else 7),
        random_cover(rng, geom.domain, nsplits=5),
    ]
    ncut = 0
    for _ in range(3):
        f = _near_grid_body(rng, geom)
        for ba in layouts[: 3 if dim == 2 else 2]:
            for s in (2, 3, 4, 5, 8):
                got = compute_moments(f, geom, ba, subsamples=s)
                want = eb_reference.compute_moments(f, geom, ba, subsamples=s)
                _assert_same_moments(got, want, centroids_exact=s in (2, 4, 8))
                ncut += sum(int((got.flags.fab(g).data == CUT).sum()) for g in range(len(ba)))
    assert ncut > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_user_function_takes_every_cell_through_subsampling(rng, dim):
    geom = _geom(12 if dim == 3 else 24, dim=dim)
    ba = BoxArray([geom.domain]).max_size(5)
    f = _near_grid_body(rng, geom)
    user = ImplicitFunction(lambda p: f(p))
    for s in (3, 4):
        _assert_same_moments(
            compute_moments(user, geom, ba, subsamples=s),
            compute_moments(f, geom, ba, subsamples=s),
            centroids_exact=True,
        )
    assert np.array_equal(
        gather_global(classify(user, geom, ba), geom.domain),
        gather_global(classify(f, geom, ba), geom.domain),
    )


@pytest.mark.parametrize("s", [3, 4, 5])
def test_centroids_do_not_depend_on_the_box_layout(s):
    geom = _geom(24, dim=3)
    f = listing_csg()
    first = None
    for max_size in (24, 8, 5, 1):
        data = compute_moments(f, geom, BoxArray([geom.domain]).max_size(max_size), s)
        got = [
            gather_global(getattr(data, name), geom.domain, comp=c)
            for name in ("centroid", "eb_centroid")
            for c in range(3)
        ]
        if first is None:
            first = got
        for a, b in zip(got, first):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_degenerate_cell_is_reflagged_by_majority_vote(dim):
    # a body smaller than the subsample spacing at one cell center: the
    # center is inside, every corner and subsample is fluid, so the face
    # balance cancels and the vote makes the cell regular
    geom = _geom(8, dim=dim)
    cell = (3, 4, 5)[:dim]
    center = geom.cell_center(IntVect(cell))
    f = sphere(0.1 * geom.cell_size[0], center)
    ba = BoxArray([geom.domain]).max_size(4)
    g = next(i for i in range(len(ba)) if ba[i].contains(IntVect(cell)))
    data = compute_moments(f, geom, ba, subsamples=4)
    assert data.diagnostics == [(g, cell, REGULAR)]
    local = tuple(c - lo for c, lo in zip(cell, ba[g].lo))
    assert data.flags.fab(g).valid(0)[local] == REGULAR
    assert (data.flags.fab(g).valid(0) == REGULAR).all()
    assert data.volfrac.fab(g).valid(0)[local] == 1.0
    assert data.eb_area.fab(g).valid(0)[local] == 0.0
    for name in ("eb_normal", "eb_centroid"):
        assert (getattr(data, name).fab(g).valid()[(slice(None),) + local] == 0.0).all()
    want = eb_reference.compute_moments(f, geom, ba, subsamples=4)
    _assert_same_moments(data, want, centroids_exact=True)


# -- small-cell redistribution ---------------------------------------------------


def _hand_built_ebdata():
    # 4x1 strip: covered | kappa 1.0 | small kappa 0.1 | kappa 0.5
    geom = _geom(4, dim=2, lo=0.0, hi=1.0)
    geom = Geometry(
        Box(IntVect.zero(2), IntVect(3, 0)), (0.0, 0.0), (1.0, 0.25), (False, False)
    )
    ba = BoxArray([geom.domain])
    dm = DistributionMapping.single_rank(1)
    data = EBLevelData(geom, ba, dm, 2)
    data.volfrac.fab(0).valid(0)[...] = np.array([[0.0], [1.0], [0.1], [0.5]])
    data.flags.fab(0).valid(0)[...] = np.array([[COVERED], [CUT], [CUT], [CUT]])
    return geom, ba, dm, data


def test_small_cell_redistribution_hand_case():
    geom, ba, dm, data = _hand_built_ebdata()
    upd = FabArray(ba, dm, 1, 0)
    upd.fab(0).valid(0)[...] = np.array([[0.0], [2.0], [10.0], [4.0]])
    redistribute_small_cells(upd, data, threshold=0.5)
    got = upd.fab(0).valid(0)[:, 0]
    # small cell keeps kappa*u = 1.0; removed mass 0.9 splits over the two
    # face neighbors (kappa sum 1.5) as an even value bump of 0.6 each
    assert np.allclose(got, [0.0, 2.6, 1.0, 4.6], rtol=0, atol=1e-14)


def test_small_cell_redistribution_conserves(rng):
    geom = _geom(24, dim=2)
    f = sphere(0.6, (0.0, 0.0))
    ba = BoxArray([geom.domain]).max_size(8)
    data = compute_moments(f, geom, ba, subsamples=4)
    upd = FabArray(ba, data.dm, 1, 0)
    for g in range(len(ba)):
        upd.fab(g).valid(0)[...] = rng.normal(size=tuple(ba[g].extents()))
    kappa = gather_global(data.volfrac, geom.domain)
    before = (kappa * gather_global(upd, geom.domain)).sum()
    redistribute_small_cells(upd, data, threshold=0.4)
    after = (kappa * gather_global(upd, geom.domain)).sum()
    assert abs(after - before) <= 1e-12 * max(1.0, abs(before))
    # touched: at least one small cell existed, or the geometry was too clean
    flags = gather_global(data.flags, geom.domain)
    assert ((flags == CUT) & (kappa < 0.4) & (kappa > 0.0)).any()


# -- level sets ------------------------------------------------------------------


def test_level_set_values_and_refinement():
    geom = _geom(8, dim=2)
    f = sphere(0.5, (0.0, 0.0))
    ba = BoxArray([geom.domain]).max_size(4)
    ls = build_level_set(f, geom, ba, refine_ratio=2)
    assert tuple(ls.refine_ratio) == (2, 2)
    for g in range(len(ls.fa.ba)):
        nb = ls.fa.ba[g]
        vals = ls.fa.fab(g).valid(0)
        coords = [
            ls.geom.prob_lo[d]
            + (np.arange(nb.lo[d], nb.hi[d] + 1) - ls.geom.domain.lo[d])
            * ls.geom.cell_size[d]
            for d in range(2)
        ]
        mesh = np.meshgrid(*coords, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        want = f(pts).reshape(vals.shape)
        assert np.array_equal(vals, want)
    # sign convention: a node at the center is positive, a far corner negative
    found_pos = found_neg = False
    for g in range(len(ls.fa.ba)):
        v = ls.fa.fab(g).valid(0)
        found_pos |= (v > 0).any()
        found_neg |= (v < 0).any()
    assert found_pos and found_neg


def test_level_set_rejects_bad_ratio():
    geom = _geom(8, dim=2)
    ba = BoxArray([geom.domain])
    with pytest.raises(ValueError):
        build_level_set(sphere(0.5, (0, 0)), geom, ba, refine_ratio=0)


# -- pruning ---------------------------------------------------------------------


def test_prune_matches_per_cell_oracle(rng):
    # fluid pipe through solid: boxes away from the bore are fully covered
    geom = _geom(16, dim=3)
    f = complement(cylinder(0.25, 2, (0.0, 0.0, 0.0)))
    ba = BoxArray([geom.domain]).max_size(4)
    pred = covered_box_predicate(f, geom)
    pruned = ba.prune(pred)
    flags = classify(f, geom, ba)
    oracle_keep = [
        g
        for g in range(len(ba))
        if not (flags.fab(g).valid(0) == COVERED).all()
    ]
    assert len(pruned) == len(oracle_keep)
    assert [pruned[i] for i in range(len(pruned))] == [ba[g] for g in oracle_keep]
    assert 0 < len(pruned) < len(ba)
    # no fluid volume is lost: total volfrac agrees between full and pruned
    full = compute_moments(f, geom, ba, subsamples=2)
    part = compute_moments(f, geom, pruned, subsamples=2)
    tot_full = sum(full.volfrac.fab(g).valid(0).sum() for g in range(len(ba)))
    tot_part = sum(part.volfrac.fab(g).valid(0).sum() for g in range(len(pruned)))
    assert tot_full == tot_part
