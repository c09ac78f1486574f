"""On-disk formats: plotfiles, particle dumps, checkpoints.  Byte-level
determinism is the contract: the same data must serialize to the same bytes
no matter how many ranks or writer threads produced it."""

import errno
import hashlib
import os
import threading

import numpy as np
import pytest

from amrkit import counters, plotfile
from amrkit.advect import (
    AdvectionSolver,
    load_solver_checkpoint,
    save_solver_checkpoint,
)
from amrkit.amr_core import Geometry, GridGenParams
from amrkit.boxarray import BoxArray
from amrkit.distribution import DistributionMapping, default_costs, sfc_distribute
from amrkit.fabarray import FabArray, gather_global
from amrkit.index_space import Box, IntVect
from amrkit.particles import ParticleContainer, redistribute
from amrkit.plotfile import (
    OutputMode,
    PlotfileHeader,
    load_particles_into,
    read_checkpoint,
    read_particles,
    read_plotfile,
    write_checkpoint,
    write_particles,
    write_plotfile,
)

from conftest import random_cover


def _dir_digest(path):
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _two_level(rng, nranks=1, n=16, dim=2):
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    geom0 = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
    ba0 = BoxArray([domain]).max_size(8)
    dm0 = sfc_distribute(ba0, default_costs(ba0), nranks)
    fine_region = Box(IntVect([n // 2] * dim), IntVect([n + n // 2 - 1] * dim))
    ba1 = BoxArray([fine_region]).max_size(8)
    dm1 = sfc_distribute(ba1, default_costs(ba1), nranks)
    geom1 = geom0.refine(IntVect([2] * dim))
    meshes = []
    for ba, dm in ((ba0, dm0), (ba1, dm1)):
        fa = FabArray(ba, dm, 2, 0)
        for g in range(len(ba)):
            for c in range(2):
                seed_local = np.random.default_rng(hash((g, c)) % 2**32)
                fa.fab(g).valid(c)[...] = seed_local.normal(
                    size=tuple(ba[g].extents())
                )
        meshes.append(fa)
    header = PlotfileHeader(0.625, ["density", "tracer"], [geom0, geom1])
    return header, meshes


# -- plotfiles -----------------------------------------------------------------


def test_plotfile_round_trip(rng, tmp_path):
    header, meshes = _two_level(rng)
    path = str(tmp_path / "plt")
    write_plotfile(path, meshes, header).wait()
    got_header, got_meshes = read_plotfile(path)
    assert got_header.time == header.time
    assert got_header.names == header.names
    assert len(got_meshes) == 2
    for lev in range(2):
        g0 = header.geoms[lev]
        g1 = got_header.geoms[lev]
        assert g1.domain == g0.domain
        assert g1.prob_lo == g0.prob_lo and g1.prob_hi == g0.prob_hi
        assert g1.periodic == g0.periodic
        dom = g0.domain
        for c in range(2):
            assert np.array_equal(
                gather_global(got_meshes[lev], dom, comp=c),
                gather_global(meshes[lev], dom, comp=c),
            )


def test_header_rejects_spaces_in_names():
    with pytest.raises(ValueError):
        PlotfileHeader(0.0, ["bad name"], [])


def test_bytes_deterministic_and_layout_independent(rng, tmp_path):
    digests = set()
    for nranks, nwriters in ((1, 1), (2, 1), (4, 2), (4, 4), (8, 3)):
        header, meshes = _two_level(rng, nranks=nranks)
        path = str(tmp_path / f"plt_r{nranks}_w{nwriters}")
        write_plotfile(path, meshes, header, OutputMode.static(nwriters)).wait()
        digests.add(_dir_digest(path))
    assert len(digests) == 1
    # and writing the same thing twice is bit-identical
    header, meshes = _two_level(rng)
    a, b = str(tmp_path / "rep_a"), str(tmp_path / "rep_b")
    write_plotfile(a, meshes, header).wait()
    write_plotfile(b, meshes, header).wait()
    assert _dir_digest(a) == _dir_digest(b)


def test_wave_and_peak_writer_counters(rng, tmp_path):
    header, meshes = _two_level(rng, nranks=4)
    counters.reset("io_waves", "io_peak_writers", "io_bytes_written")
    write_plotfile(
        str(tmp_path / "plt"), meshes, header, OutputMode.static(2)
    ).wait()
    # 4 ranks in groups of 2 -> 2 waves per level, never more than 2 writers
    assert counters.get("io_waves") == 2 * len(meshes)
    assert counters.get("io_peak_writers") == 2
    assert counters.get("io_bytes_written") > 0


def test_single_writer_serializes(rng, tmp_path):
    header, meshes = _two_level(rng, nranks=4)
    counters.reset("io_waves", "io_peak_writers")
    write_plotfile(str(tmp_path / "plt"), meshes, header, OutputMode.static(1)).wait()
    assert counters.get("io_waves") == 4 * len(meshes)
    assert counters.get("io_peak_writers") == 1


def test_async_same_bytes_as_static(rng, tmp_path):
    header, meshes = _two_level(rng, nranks=2)
    a, b = str(tmp_path / "sync"), str(tmp_path / "async")
    write_plotfile(a, meshes, header, OutputMode.static(1)).wait()
    h = write_plotfile(b, meshes, header, OutputMode.asynchronous())
    h.wait()
    assert h.done
    assert _dir_digest(a) == _dir_digest(b)


def test_async_snapshot_isolation(rng, tmp_path):
    header, meshes = _two_level(rng)
    want = [gather_global(m, g.domain) for m, g in zip(meshes, header.geoms)]
    path = str(tmp_path / "plt")
    h = write_plotfile(path, meshes, header, OutputMode.asynchronous())
    for m in meshes:  # mutate immediately after submit, before waiting
        for g in range(len(m.ba)):
            m.fab(g).valid()[...] = -1234.5
    h.wait()
    _, got = read_plotfile(path)
    for lev in range(2):
        assert np.array_equal(
            gather_global(got[lev], header.geoms[lev].domain), want[lev]
        )


def test_async_error_surfaces_on_wait(rng, tmp_path):
    header, meshes = _two_level(rng)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    h = write_plotfile(
        str(blocker / "plt"), meshes, header, OutputMode.asynchronous()
    )
    with pytest.raises(OSError):
        h.wait()


@pytest.mark.parametrize(
    "mode", [OutputMode.static(2), OutputMode.asynchronous()], ids=["static2", "async"]
)
def test_failed_pwrite_raises(tmp_path, monkeypatch, mode):
    # four boxes on two ranks; the third pwrite (the sizing write counts)
    # fails, which used to leave a zero-filled box behind a returned handle
    domain = Box(IntVect.zero(2), IntVect(15, 15))
    ba = BoxArray([domain]).max_size(8)
    fa = FabArray(ba, sfc_distribute(ba, default_costs(ba), 2), 1, 0).setval(1.0)
    header = PlotfileHeader(0.0, ["phi"], [Geometry(domain, (0.0, 0.0), (1.0, 1.0))])
    real = os.pwrite
    lock = threading.Lock()
    calls = []

    def pwrite(fd, data, offset):
        with lock:
            calls.append(offset)
            nth = len(calls)
        if nth == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)
    with pytest.raises(OSError) as info:
        write_plotfile(str(tmp_path / "plt"), [fa], header, mode).wait()
    assert info.value.errno == errno.ENOSPC
    assert len(calls) >= 3


def _four_boxes_on_two_ranks():
    domain = Box(IntVect.zero(2), IntVect(15, 15))
    ba = BoxArray([domain]).max_size(8)
    fa = FabArray(ba, sfc_distribute(ba, default_costs(ba), 2), 1, 0).setval(1.0)
    header = PlotfileHeader(0.0, ["phi"], [Geometry(domain, (0.0, 0.0), (1.0, 1.0))])
    return fa, header


MODES = [OutputMode.static(1), OutputMode.static(2), OutputMode.asynchronous()]
MODE_IDS = ["static1", "static2", "async"]


def _writer(target, path, fa, header, mode):
    if target == "plotfile":
        return lambda: write_plotfile(path, [fa], header, mode).wait()
    return lambda: write_checkpoint(path, [fa], header, step=1, user_blob=b"blob", mode=mode)


def _read_values(target, path):
    """The values a reader returns for the one level, or None where it raises."""
    try:
        if target == "plotfile":
            mesh = read_plotfile(path)[1][0]
        else:
            mesh = read_checkpoint(path)["meshes"][0]
    except (OSError, ValueError):
        return None
    return mesh.arena


def _interrupted_write(tmp_path, monkeypatch, mode, target, *injects):
    """Write a good output of ones, then rewrites of twos, each under the
    fault that one of injects(monkeypatch, path) sets up.  Each rewrite
    must raise and leave the ones whole: under <path>, or, with <path>
    unreadable, under <path>.old.  No name may read back as anything but
    ones or twos."""
    fa, header = _four_boxes_on_two_ranks()
    path = str(tmp_path / target)
    _writer(target, path, fa, header, mode)()
    before = _dir_digest(path)
    twos = FabArray(fa.ba, fa.dm, 1, 0).setval(2.0)
    for inject in injects:
        with monkeypatch.context() as m:
            inject(m, path)
            with pytest.raises(OSError):
                _writer(target, path, twos, header, mode)()
        if os.path.exists(path):
            assert _dir_digest(path) == before
            assert np.array_equal(_read_values(target, path), fa.arena)
        else:
            assert _read_values(target, path) is None
            assert _dir_digest(path + ".old") == before
        for name in (path, path + ".old", path + ".partial"):
            got = _read_values(target, name)
            assert got is None or set(np.unique(got).tolist()) in ({1.0}, {2.0})
    # the next write clears what the failed one left and lands whole
    _writer(target, path, twos, header, mode)()
    assert np.array_equal(_read_values(target, path), twos.arena)
    assert not os.path.exists(path + ".partial") and not os.path.exists(path + ".old")
    fresh = str(tmp_path / "fresh")
    _writer(target, fresh, twos, header, mode)()
    assert _dir_digest(path) == _dir_digest(fresh)
    return path


def _fail_third_pwrite(m, path):
    real = os.pwrite
    lock = threading.Lock()
    calls = []

    def pwrite(fd, data, offset):
        with lock:
            calls.append(offset)
            nth = len(calls)
        if nth == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, data, offset)

    m.setattr(os, "pwrite", pwrite)


@pytest.mark.parametrize("target", ["plotfile", "checkpoint"])
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_failed_write_leaves_no_readable_header(tmp_path, monkeypatch, mode, target):
    # a failed pwrite leaves its own output without a Header, so it cannot
    # be read back as zeros, and the previous output stays whole
    path = _interrupted_write(tmp_path, monkeypatch, mode, target, _fail_third_pwrite)
    assert not os.path.exists(os.path.join(path + ".partial", "Header"))


def _fail_header(m, path):
    # a crash after the data, before the output's own Header
    def fake_open(name, *args, **kwargs):
        if name == os.path.join(path + ".partial", "Header"):
            raise OSError(errno.EIO, "interrupted before the Header")
        return open(name, *args, **kwargs)

    m.setattr(plotfile, "open", fake_open, raising=False)


def _fail_second_rename(m, path):
    # a crash after <path> became <path>.old, before <path>.partial became <path>
    real = os.rename
    calls = []

    def rename(src, dst):
        calls.append(src)
        if len(calls) == 2:
            raise OSError(errno.EIO, "interrupted between the renames")
        return real(src, dst)

    m.setattr(os, "rename", rename)


@pytest.mark.parametrize("target", ["plotfile", "checkpoint"])
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("fault", ["header", "rename"])
def test_interrupted_write_keeps_previous_output(tmp_path, monkeypatch, fault, mode, target):
    inject = {"header": _fail_header, "rename": _fail_second_rename}[fault]
    # a second failure, after the first left its debris, must keep the
    # previous output too
    _interrupted_write(tmp_path, monkeypatch, mode, target, inject, _fail_third_pwrite)


def test_rename_crash_leaves_previous_output_in_old(tmp_path, monkeypatch):
    fa, header = _four_boxes_on_two_ranks()
    path = str(tmp_path / "plt")
    write_plotfile(path, [fa], header).wait()
    before = _dir_digest(path)
    twos = FabArray(fa.ba, fa.dm, 1, 0).setval(2.0)
    with monkeypatch.context() as m:
        _fail_second_rename(m, path)
        with pytest.raises(OSError):
            write_plotfile(path, [twos], header).wait()
    # the new output was complete; only the swap was cut short
    assert not os.path.exists(path)
    assert _dir_digest(path + ".old") == before
    assert np.array_equal(_read_values("plotfile", path + ".partial"), twos.arena)


@pytest.mark.parametrize("target", ["plotfile", "checkpoint"])
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_stale_partial_and_old_are_cleared(tmp_path, mode, target):
    fa, header = _four_boxes_on_two_ranks()
    path = str(tmp_path / target)
    fresh = str(tmp_path / "fresh")
    _writer(target, fresh, fa, header, mode)()
    # junk where an earlier crash could leave it: a partial output with a
    # Header and an oversized level file, and an old output beside <path>
    for stale in (path + ".partial", path + ".old", path):
        os.makedirs(os.path.join(stale, "Level_0"))
        with open(os.path.join(stale, "Level_0", "data.bin"), "wb") as fh:
            fh.write(b"\xff" * 10_000)
        with open(os.path.join(stale, "Header"), "w") as fh:
            fh.write("stale\n")
    _writer(target, path, fa, header, mode)()
    assert _dir_digest(path) == _dir_digest(fresh)
    assert sorted(os.listdir(tmp_path)) == sorted(["fresh", target])


def test_write_over_a_file_raises_and_keeps_it(tmp_path):
    fa, header = _four_boxes_on_two_ranks()
    path = tmp_path / "plt"
    path.write_text("not an output")
    for _ in range(2):
        with pytest.raises(OSError):
            write_plotfile(str(path), [fa], header).wait()
        assert path.read_text() == "not an output"
        assert not os.path.exists(str(path) + ".old")


def test_truncated_level_data_raises(rng, tmp_path):
    header, meshes = _two_level(rng)
    path = str(tmp_path / "plt")
    write_plotfile(path, meshes, header).wait()
    fname = os.path.join(path, "Level_1", "data.bin")
    size = os.path.getsize(fname)
    os.truncate(fname, size - 8)
    with pytest.raises(ValueError, match="bytes"):
        read_plotfile(path)


def test_unpacked_record_layout_raises(rng, tmp_path):
    # the reader takes a level in one read, so the Header's record offsets
    # and sizes must be the packed box-order layout the writer produces
    header, meshes = _two_level(rng)
    path = str(tmp_path / "plt")
    write_plotfile(path, meshes, header).wait()
    hdr = os.path.join(path, "Header")
    text = open(hdr).read()
    lines = text.splitlines()
    boxes = [k for k, ln in enumerate(lines) if ln.startswith("box ")]
    a, b = lines[boxes[0]].split(), lines[boxes[1]].split()
    a[-2], b[-2] = b[-2], a[-2]  # swap the first two records' offsets
    lines[boxes[0]], lines[boxes[1]] = " ".join(a), " ".join(b)
    open(hdr, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="packed"):
        read_plotfile(path)


# -- the Box-loop reference: Header lines from Box objects, per-box payload --


def _fmt_ints(values):
    return " ".join(str(int(v)) for v in values)


def _fmt_floats(values):
    return " ".join(repr(float(v)) for v in values)


def _box_token(b):
    return _fmt_ints(b.lo.coords + b.hi.coords)


def _parse_box(parts, dim):
    lo = IntVect(int(x) for x in parts[:dim])
    hi = IntVect(int(x) for x in parts[dim : 2 * dim])
    return Box(lo, hi)


def _records_box_loop(mesh):
    offsets, sizes, at = [], [], 0
    for b in mesh.ba:
        offsets.append(at)
        sizes.append(8 * mesh.ncomp * b.num_cells())
        at += sizes[-1]
    return offsets, sizes


def _header_text_box_loop(header, meshes):
    g = header.geoms[0]
    lines = [
        "amrkit-plotfile-1",
        "endian little",
        "real float64",
        f"time {header.time!r}",
        f"dim {g.dim}",
        f"nlevels {header.nlevels}",
        f"components {len(header.names)} " + " ".join(header.names),
        "prob_lo " + _fmt_floats(g.prob_lo),
        "prob_hi " + _fmt_floats(g.prob_hi),
        "periodic " + _fmt_ints(g.periodic),
    ]
    for lev, mesh in enumerate(meshes):
        geom = header.geoms[lev]
        offsets, sizes = _records_box_loop(mesh)
        lines.append(f"level {lev}")
        lines.append("domain " + _box_token(geom.domain))
        lines.append("cell_size " + _fmt_floats(geom.cell_size))
        lines.append(f"nboxes {len(mesh.ba)}")
        for i in range(len(mesh.ba)):
            lines.append("box " + _box_token(mesh.ba[i]) + f" {offsets[i]} {sizes[i]}")
    return "\n".join(lines) + "\n"


def _write_plotfile_box_loop(path, meshes, header):
    """The plotfile written box by box: each record a copy of one Fab's
    valid region, in box order."""
    os.makedirs(path)
    for lev, mesh in enumerate(meshes):
        os.makedirs(os.path.join(path, f"Level_{lev}"))
        with open(os.path.join(path, f"Level_{lev}", "data.bin"), "wb") as fh:
            for i in range(len(mesh.ba)):
                fh.write(mesh.fab(i).valid().copy().astype("<f8").tobytes())
    with open(os.path.join(path, "Header"), "w") as fh:
        fh.write(_header_text_box_loop(header, meshes))


def _read_plotfile_box_loop(path):
    """The plotfile read line by line into Boxes, the layout built from them."""
    with open(os.path.join(path, "Header")) as fh:
        lines = fh.read().splitlines()
    dim, nlevels = int(lines[4].split()[1]), int(lines[5].split()[1])
    names = lines[6].split()[2:]
    at, out = 10, []
    for lev in range(nlevels):
        domain = _parse_box(lines[at + 1].split()[1:], dim)
        nboxes = int(lines[at + 3].split()[1])
        boxes = [_parse_box(ln.split()[1:], dim) for ln in lines[at + 4 : at + 4 + nboxes]]
        at += 4 + nboxes
        ba = BoxArray(boxes)
        mesh = FabArray(ba, DistributionMapping.single_rank(len(ba)), len(names), 0)
        with open(os.path.join(path, f"Level_{lev}", "data.bin"), "rb") as fh:
            mesh.arena[...] = np.frombuffer(fh.read(), "<f8")
        out.append((domain, mesh))
    return out


def _random_hierarchy(rng, dim, nlevels, ncomp, ngrow):
    """Meshes whose arenas, ghost cells included, hold random values."""
    n = int(rng.integers(6, 14))
    lo = [int(rng.integers(-5, 5)) for _ in range(dim)]
    domain = Box(IntVect(lo), IntVect([l + n - 1 for l in lo]))
    geoms = [Geometry(domain, (0.0,) * dim, (1.5,) * dim, (True,) * dim)]
    layouts = [random_cover(rng, domain, nsplits=int(rng.integers(0, 8)))]
    if nlevels == 2:
        geoms.append(geoms[0].refine(2))
        region = Box(IntVect(lo), IntVect([l + n // 2 for l in lo])).refine(2)
        layouts.append(random_cover(rng, region, nsplits=int(rng.integers(0, 8))))
    meshes = []
    for ba in layouts:
        fa = FabArray(ba, sfc_distribute(ba, default_costs(ba), 3), ncomp, ngrow)
        fa.arena[...] = rng.normal(size=fa.arena.shape)
        meshes.append(fa)
    names = [f"q{k}" for k in range(ncomp)]
    return PlotfileHeader(float(rng.random()), names, geoms), meshes


def test_plotfile_bytes_match_box_loop_reference(rng, tmp_path):
    for trial in range(24):
        dim, ngrow = trial % 3 + 1, trial // 3 % 3
        nlevels, ncomp = trial % 2 + 1, int(rng.integers(1, 5))
        header, meshes = _random_hierarchy(rng, dim, nlevels, ncomp, ngrow)
        got, want = str(tmp_path / f"got{trial}"), str(tmp_path / f"want{trial}")
        write_plotfile(got, meshes, header, MODES[trial % 3]).wait()
        _write_plotfile_box_loop(want, meshes, header)
        names = ["Header"] + [f"Level_{lev}/data.bin" for lev in range(nlevels)]
        for name in names:
            with open(os.path.join(got, name), "rb") as a, open(os.path.join(want, name), "rb") as b:
                assert a.read() == b.read(), name
        got_header, got_meshes = read_plotfile(got)
        assert got_header.names == header.names and got_header.time == header.time
        for lev, (domain, ref) in enumerate(_read_plotfile_box_loop(want)):
            mesh = got_meshes[lev]
            assert got_header.geoms[lev].domain == domain == header.geoms[lev].domain
            assert mesh.ba == ref.ba == meshes[lev].ba
            assert mesh.ba.bounds().tolist() == ref.ba.bounds().tolist()
            assert list(mesh.ba) == list(ref.ba)
            assert mesh.arena.tobytes() == ref.arena.tobytes()
            assert mesh.arena.tobytes() == meshes[lev].valid_values().tobytes()


@pytest.mark.parametrize("ngrow", [0, 1])
def test_plotfile_io_makes_no_boxes(tmp_path, monkeypatch, ngrow):
    # 512 boxes: the Header is formatted from and parsed into int arrays,
    # and the payload is one snapshot, so only the read's domain is a Box
    domain = Box(IntVect.zero(3), IntVect(31, 31, 31))
    ba = BoxArray([domain]).max_size(4)
    assert len(ba) == 512
    fa = FabArray(ba, sfc_distribute(ba, default_costs(ba), 4), 2, ngrow)
    fa.arena[...] = np.arange(fa.arena.shape[0])
    header = PlotfileHeader(0.0, ["a", "b"], [Geometry(domain, (0.0,) * 3, (1.0,) * 3)])
    real = Box.__init__
    made = []

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Box, "__init__", counting_init)
    path = str(tmp_path / "plt")
    write_plotfile(path, [fa], header, OutputMode.static(2)).wait()
    assert len(made) == 0
    _, meshes = read_plotfile(path)
    assert len(made) == 1
    monkeypatch.setattr(Box, "__init__", real)
    assert meshes[0].ba == ba
    assert np.array_equal(meshes[0].arena, fa.valid_values())


def test_async_queue_drains_in_order(rng, tmp_path):
    # back-to-back submissions; the single worker with a depth-one queue
    # must complete all of them correctly
    handles = []
    wants = []
    for k in range(3):
        header, meshes = _two_level(rng)
        path = str(tmp_path / f"plt{k}")
        wants.append((path, gather_global(meshes[0], header.geoms[0].domain)))
        handles.append(write_plotfile(path, meshes, header, OutputMode.asynchronous()))
    for h in handles:
        h.wait()
    for path, want in wants:
        _, got = read_plotfile(path)
        assert np.array_equal(gather_global(got[0], Box(IntVect(0, 0), IntVect(15, 15))), want)


def test_read_rejects_wrong_tag(rng, tmp_path):
    header, meshes = _two_level(rng)
    path = str(tmp_path / "plt")
    write_plotfile(path, meshes, header).wait()
    hdr = os.path.join(path, "Header")
    lines = open(hdr).read().splitlines()
    lines[0] = "someone-elses-format-9"
    open(hdr, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_plotfile(path)


# -- particle dumps --------------------------------------------------------------


def _particle_setup(rng, nranks, n=300):
    dim = 2
    domain = Box(IntVect.zero(dim), IntVect(15, 15))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
    ba = BoxArray([domain]).max_size(8)
    dm = sfc_distribute(ba, default_costs(ba), nranks)
    pc = ParticleContainer([geom], [ba], [dm], nreal=1, nint=1)
    return pc


def test_particle_dump_round_trip(rng, tmp_path):
    pc = _particle_setup(rng, nranks=4)
    n = 300
    pos = rng.random((n, 2))
    pc.add_particles(
        pos,
        rdata=rng.random((1, n)),
        idata=rng.integers(0, 99, (1, n)),
        ids=np.arange(1, n + 1, dtype=np.int64),
    )
    redistribute(pc)
    path = str(tmp_path / "particles")
    write_particles(path, pc)
    meta, records = read_particles(path)
    assert meta == {"dim": 2, "nreal": 1, "nint": 1}
    assert sorted(records) == [k for k in pc.sorted_keys() if pc.tiles[k].size]
    for key, (ids, origin, ppos, rdata, idata) in records.items():
        t = pc.tiles[key]
        assert np.array_equal(ids, t.aos["id"])
        assert np.array_equal(origin, t.aos["origin"])
        assert np.array_equal(ppos, t.aos["pos"])
        assert np.array_equal(rdata, t.rdata)
        assert np.array_equal(idata, t.idata)


def test_particle_dump_bytes_rank_independent(rng, tmp_path):
    n = 200
    pos = rng.random((n, 2))
    w = rng.random((1, n))
    digests = set()
    for nranks in (1, 2, 4):
        pc = _particle_setup(rng, nranks=nranks)
        pc.add_particles(pos.copy(), rdata=w.copy(),
                         idata=np.zeros((1, n), dtype=np.int64),
                         ids=np.arange(1, n + 1, dtype=np.int64))
        redistribute(pc)
        path = str(tmp_path / f"p{nranks}")
        write_particles(path, pc)
        digests.add(_dir_digest(path))
    assert len(digests) == 1


def test_particle_dump_reload_into_container(rng, tmp_path):
    src = _particle_setup(rng, nranks=4)
    n = 150
    src.add_particles(
        rng.random((n, 2)),
        rdata=rng.random((1, n)),
        idata=rng.integers(-5, 5, (1, n)),
        ids=np.arange(1, n + 1, dtype=np.int64),
    )
    redistribute(src)
    path = str(tmp_path / "dump")
    write_particles(path, src)
    dst = _particle_setup(rng, nranks=1)
    epoch_before = dst.epoch
    load_particles_into(dst, path)
    assert dst.epoch > epoch_before
    assert dst.id_positions() == src.id_positions()
    assert dst.total_valid() == n


def _write_particles_per_tile(path, pc):
    """The dump as written from separate per-tile storage: Header lines,
    then each tile's id, origin, pos, rdata and idata columns."""
    os.makedirs(path, exist_ok=True)
    keys = [k for k in pc.sorted_keys() if pc.tiles[k].size]
    lines = ["amrkit-particles-1", "endian little", f"dim {pc.dim}",
             f"nreal {pc.nreal}", f"nint {pc.nint}", f"ntiles {len(keys)}"]
    at = 0
    for key in keys:
        n = pc.tiles[key].size
        nbytes = n * (8 + 4 + 8 * pc.dim + 8 * pc.nreal + 8 * pc.nint)
        lines.append(f"tile {key[0]} {key[1]} {key[2]} {n} {at} {nbytes}")
        at += nbytes
    with open(os.path.join(path, "Header"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(path, "data.bin"), "wb") as fh:
        for key in keys:
            t = pc.tiles[key]
            fh.write(np.ascontiguousarray(t.aos["id"]).astype("<i8").tobytes())
            fh.write(np.ascontiguousarray(t.aos["origin"]).astype("<i4").tobytes())
            fh.write(np.ascontiguousarray(t.aos["pos"]).astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(t.rdata).astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(t.idata).astype("<i8").tobytes())


def test_particle_dump_bytes_match_per_tile_writer(rng, tmp_path):
    # two levels, repeated ids, several extras, and a reload that must
    # rebuild the same store
    header, _ = _two_level(rng, nranks=3)
    bas = [BoxArray([Box(IntVect(0, 0), IntVect(15, 15))]).max_size(8),
           BoxArray([Box(IntVect(16, 16), IntVect(31, 31))]).max_size(8)]
    dms = [sfc_distribute(ba, default_costs(ba), 3) for ba in bas]
    for nreal, nint in ((0, 0), (2, 1), (1, 3)):
        pc = ParticleContainer(header.geoms, bas, dms, nreal=nreal, nint=nint, tile_size=4)
        n = 400
        pc.add_particles(
            rng.random((n, 2)),
            rdata=rng.random((nreal, n)),
            idata=rng.integers(-9, 9, (nint, n)),
            ids=rng.integers(1, n // 3, n),
            origin_rank=2,
        )
        redistribute(pc)
        got, want = str(tmp_path / f"store{nreal}"), str(tmp_path / f"tiles{nreal}")
        write_particles(got, pc)
        _write_particles_per_tile(want, pc)
        for name in ("Header", "data.bin"):
            with open(os.path.join(got, name), "rb") as a:
                with open(os.path.join(want, name), "rb") as b:
                    assert a.read() == b.read()
        again = ParticleContainer(header.geoms, bas, dms, nreal=nreal, nint=nint, tile_size=4)
        load_particles_into(again, got)
        assert again.sorted_keys() == pc.sorted_keys()
        for a, b in ((again.aos, pc.aos), (again.rdata, pc.rdata), (again.idata, pc.idata)):
            assert a.tobytes() == b.tobytes()
        assert again.keys.tobytes() == pc.keys.tobytes()
        assert again.starts.tobytes() == pc.starts.tobytes()


def test_particle_dump_rejects_short_or_unpacked_data(rng, tmp_path):
    pc = _particle_setup(rng, nranks=2)
    n = 120
    pc.add_particles(rng.random((n, 2)), rdata=rng.random((1, n)),
                     idata=np.zeros((1, n), dtype=np.int64),
                     ids=np.arange(1, n + 1, dtype=np.int64))
    redistribute(pc)
    path = str(tmp_path / "dump")
    write_particles(path, pc)
    fname = os.path.join(path, "data.bin")
    os.truncate(fname, os.path.getsize(fname) - 8)
    with pytest.raises(ValueError, match="holds"):
        read_particles(path)
    write_particles(path, pc)
    header = os.path.join(path, "Header")
    with open(header) as fh:
        lines = fh.read().splitlines()
    tile = next(i for i, line in enumerate(lines) if line.startswith("tile ")) + 1
    parts = lines[tile].split()
    parts[5] = str(int(parts[5]) + 8)
    lines[tile] = " ".join(parts)
    with open(header, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not packed"):
        read_particles(path)


def test_empty_particle_dump(rng, tmp_path):
    pc = _particle_setup(rng, nranks=2)
    path = str(tmp_path / "empty")
    write_particles(path, pc)
    meta, records = read_particles(path)
    assert records == {}
    dst = _particle_setup(rng, nranks=1)
    load_particles_into(dst, path)
    assert dst.total_valid() == 0


def test_particle_schema_mismatch_raises(rng, tmp_path):
    pc = _particle_setup(rng, nranks=1)
    pc.add_particles(rng.random((10, 2)), rdata=rng.random((1, 10)),
                     idata=np.zeros((1, 10), dtype=np.int64))
    redistribute(pc)
    path = str(tmp_path / "dump")
    write_particles(path, pc)
    with pytest.raises(ValueError):
        read_particles(path, expect_schema=(2, 3, 1))
    dim2 = 2
    wrong = ParticleContainer(pc.geoms, pc.bas, pc.dms, nreal=2, nint=1)
    with pytest.raises(ValueError):
        load_particles_into(wrong, path)


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip(rng, tmp_path):
    header, meshes = _two_level(rng, nranks=4)
    pc = _particle_setup(rng, nranks=4)
    pc.add_particles(rng.random((60, 2)), rdata=rng.random((1, 60)),
                     idata=np.zeros((1, 60), dtype=np.int64),
                     ids=np.arange(1, 61, dtype=np.int64))
    redistribute(pc)
    blob = b"opaque solver payload \x00\x01\x02"
    path = str(tmp_path / "chk")
    write_checkpoint(path, meshes, header, step=17, user_blob=blob, pc=pc)
    data = read_checkpoint(path)
    assert data["step"] == 17
    assert data["time"] == header.time
    assert data["nranks"] == 4
    assert data["blob"] == blob
    assert data["owners"] == [list(m.dm) for m in meshes]
    for lev in range(2):
        dom = header.geoms[lev].domain
        assert np.array_equal(
            gather_global(data["meshes"][lev], dom),
            gather_global(meshes[lev], dom),
        )
    _, records = data["particles"]
    total = sum(len(r[0]) for r in records.values())
    assert total == 60


def test_checkpoint_bytes_deterministic(rng, tmp_path):
    header, meshes = _two_level(rng, nranks=2)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_checkpoint(a, meshes, header, step=3, user_blob=b"xyz")
    write_checkpoint(b, meshes, header, step=3, user_blob=b"xyz")
    assert _dir_digest(a) == _dir_digest(b)


def test_checkpoint_version_mismatch(rng, tmp_path):
    header, meshes = _two_level(rng)
    path = str(tmp_path / "chk")
    write_checkpoint(path, meshes, header, step=0)
    hdr = os.path.join(path, "Header")
    lines = open(hdr).read().splitlines()
    lines[0] = "amrkit-checkpoint-999"
    open(hdr, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_checkpoint(path)


# -- solver restart -----------------------------------------------------------------


def _solver(nranks):
    dim = 2
    n = 32
    domain = Box(IntVect.zero(dim), IntVect([n - 1] * dim))
    geom = Geometry(domain, (0.0,) * dim, (1.0,) * dim, (True,) * dim)
    params = GridGenParams(dim=dim, max_level=1, max_grid_size=8, blocking_factor=4)
    return AdvectionSolver(geom, params, velocity=(1.0, 0.5), nranks=nranks,
                           cfl=0.4, tag_threshold=0.5, regrid_interval=4)


def _phi_state(solver):
    out = []
    for lev in range(solver.hier.finest_level + 1):
        fa = solver.hier.field("phi", lev)
        dom = solver.hier.geom(lev).domain
        out.append(gather_global(fa, dom))
    return out


def test_restart_twin_matches_uninterrupted(tmp_path):
    ref = _solver(nranks=2)
    for _ in range(20):
        ref.step()
    want = _phi_state(ref)

    half = _solver(nranks=2)
    for _ in range(10):
        half.step()
    path = str(tmp_path / "chk")
    save_solver_checkpoint(half, path)

    twin = load_solver_checkpoint(path)
    assert twin.step_count == 10
    assert twin.time == half.time
    for _ in range(10):
        twin.step()
    got = _phi_state(twin)
    assert len(got) == len(want)
    for lev in range(len(want)):
        assert np.array_equal(got[lev], want[lev])  # bitwise


def test_restart_across_rank_counts(tmp_path):
    ref = _solver(nranks=2)
    for _ in range(20):
        ref.step()
    want = _phi_state(ref)

    half = _solver(nranks=2)
    for _ in range(10):
        half.step()
    path = str(tmp_path / "chk")
    save_solver_checkpoint(half, path)

    twin = load_solver_checkpoint(path, nranks=4)
    assert twin.hier.field("phi", 0).dm.nranks == 4
    for _ in range(10):
        twin.step()
    got = _phi_state(twin)
    for lev in range(len(want)):
        assert np.array_equal(got[lev], want[lev])
