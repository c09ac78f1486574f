"""Plotfile, particle-dump, and checkpoint I/O.

Directory layout (full byte layout in FORMAT.md):

    <path>/Header              ASCII metadata
    <path>/Level_<k>/data.bin  fixed-order binary Fab records
    <path>/particles/Header    ASCII particle schema + tile table
    <path>/particles/data.bin  binary particle records

Records are each box's valid values, comp-major float64, packed in box
order: the bytes of an ngrow=0 FabArray arena.  The writer snapshots each
level once and writes every record as a slice of it at an offset fixed in
advance, so file bytes never depend on write interleaving; the reader
fills an arena with one readinto.  The Header's box lines are formatted
from, and parsed back into, one int table of bounds, offsets and sizes.
A plotfile or checkpoint is built in a fresh <path>.partial, Header last,
then renamed into place, so a failed write leaves the previous output
whole (FORMAT.md says under which name at every instant).
Static mode writes rank by rank in ceil(R/nwriters) waves with nwriters
live at once; async mode snapshots the data, hands it to one background
writer thread (bounded queue of one, so a second call blocks until the
writer is free), and returns a handle whose wait() surfaces any error.
"""

from __future__ import annotations

import os
import queue
import shutil
import sys
import threading

import numpy as np

from . import counters
from .amr_core import Geometry
from .boxarray import BoxArray
from .distribution import DistributionMapping
from .fabarray import FabArray
from .index_space import Box, IndexType, IntVect

PLOTFILE_TAG = "amrkit-plotfile-1"
PARTICLE_TAG = "amrkit-particles-1"
CHECKPOINT_TAG = "amrkit-checkpoint-1"


# ---------------------------------------------------------------------------
# modes and handles
# ---------------------------------------------------------------------------


class OutputMode:
    """static(nwriters) writes now in waves; async() snapshots and returns."""

    __slots__ = ("kind", "nwriters")

    def __init__(self, kind, nwriters=1):
        if kind not in ("static", "async"):
            raise ValueError("mode kind must be 'static' or 'async'")
        if int(nwriters) < 1:
            raise ValueError("nwriters must be >= 1")
        self.kind = kind
        self.nwriters = int(nwriters)

    @staticmethod
    def static(nwriters=1):
        return OutputMode("static", nwriters)

    @staticmethod
    def asynchronous():
        return OutputMode("async")

    def __repr__(self):
        return f"OutputMode({self.kind}, nwriters={self.nwriters})"


class WriteHandle:
    def __init__(self):
        self._event = threading.Event()
        self._error = None

    def _finish(self, error=None):
        self._error = error
        self._event.set()

    @property
    def done(self):
        return self._event.is_set()

    def wait(self, timeout=None):
        if not self._event.wait(timeout):
            raise TimeoutError("write did not complete in time")
        if self._error is not None:
            raise self._error


class _AsyncWriter:
    """One background writer; one pending snapshot of backpressure."""

    def __init__(self):
        self._queue = queue.Queue(maxsize=1)
        self._thread = None
        self._lock = threading.Lock()

    def _ensure_thread(self):
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(target=self._run, daemon=True)
                self._thread.start()

    def _run(self):
        while True:
            job, handle = self._queue.get()
            try:
                job()
                handle._finish()
            except BaseException as exc:  # surfaced on handle.wait()
                handle._finish(exc)

    def submit(self, job):
        self._ensure_thread()
        handle = WriteHandle()
        self._queue.put((job, handle))  # blocks while a snapshot is pending
        return handle


_async_writer = _AsyncWriter()


# ---------------------------------------------------------------------------
# header
# ---------------------------------------------------------------------------


class PlotfileHeader:
    """Everything needed to interpret the binary records."""

    def __init__(self, time, names, geoms):
        self.version = PLOTFILE_TAG
        self.time = float(time)
        self.names = list(names)
        if any(" " in n for n in self.names):
            raise ValueError("component names may not contain spaces")
        self.geoms = list(geoms)

    @property
    def nlevels(self):
        return len(self.geoms)


def _fmt_floats(values):
    return " ".join(repr(float(v)) for v in values)


def _fmt_ints(values):
    return " ".join(str(int(v)) for v in values)


def _record_layout(ba, ncomp):
    """(offsets, nbytes, total): comp-major float64 of each box's valid
    region, packed in box order."""
    bounds = ba.bounds()
    sizes = 8 * ncomp * (bounds[:, 1] - bounds[:, 0] + 1).prod(axis=1)
    return np.cumsum(sizes) - sizes, sizes, int(sizes.sum())


def _header_text(header, meshes):
    dim = header.geoms[0].dim
    lines = [
        PLOTFILE_TAG,
        "endian little",
        "real float64",
        f"time {header.time!r}",
        f"dim {dim}",
        f"nlevels {header.nlevels}",
        f"components {len(header.names)} " + " ".join(header.names),
        "prob_lo " + _fmt_floats(header.geoms[0].prob_lo),
        "prob_hi " + _fmt_floats(header.geoms[0].prob_hi),
        "periodic " + _fmt_ints(header.geoms[0].periodic),
    ]
    row = "box" + " %d" * (2 * dim + 2)
    for lev, mesh in enumerate(meshes):
        geom = header.geoms[lev]
        offsets, sizes, _ = _record_layout(mesh.ba, mesh.ncomp)
        n = len(mesh.ba)
        lines.append(f"level {lev}")
        lines.append("domain " + _fmt_ints((*geom.domain.lo, *geom.domain.hi)))
        lines.append("cell_size " + _fmt_floats(geom.cell_size))
        lines.append(f"nboxes {n}")
        # one row per box: lo, hi, record offset and size
        table = np.column_stack([mesh.ba.bounds().reshape(n, 2 * dim), offsets, sizes])
        lines.extend(row % tuple(r) for r in table.tolist())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plotfile write/read
# ---------------------------------------------------------------------------


def _write_level_records(fname, level, nwriters):
    """Rank-by-rank positioned writes of the records of one level's packed
    snapshot, in waves of at most nwriters; a writer thread's exception is
    re-raised once its wave has joined."""
    snapshot, owners, offsets, sizes, nranks = level
    data = memoryview(snapshot).cast("B")
    fd = os.open(fname, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    try:
        if data.nbytes:
            os.pwrite(fd, b"\0", data.nbytes - 1)  # size the file up front
        active = [0]
        gauge = threading.Lock()
        errors = {}

        def write_rank(rank, barrier):
            with gauge:
                active[0] += 1
                counters.peak("io_peak_writers", active[0])
            try:
                barrier.wait()  # the whole wave is live before anyone writes
                for i in np.flatnonzero(owners == rank).tolist():
                    at, n = offsets[i], sizes[i]
                    os.pwrite(fd, data[at : at + n], at)
                    counters.incr("io_bytes_written", n)
            except Exception as exc:  # re-raised by the joining thread
                errors[rank] = exc
            finally:
                with gauge:
                    active[0] -= 1

        for wave_start in range(0, nranks, nwriters):
            wave = list(range(wave_start, min(wave_start + nwriters, nranks)))
            counters.incr("io_waves")
            barrier = threading.Barrier(len(wave))
            threads = [
                threading.Thread(target=write_rank, args=(r, barrier))
                for r in wave
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[min(errors)]
    finally:
        os.close(fd)


def _publish(path, fill):
    """Build a complete output with fill(<path>.partial), then swap it in:
    <path> becomes <path>.old, <path>.partial becomes <path>, and
    <path>.old is deleted.  What an earlier write left is cleared first,
    except a <path>.old standing in for a missing <path> (that write
    stopped between its renames): it becomes <path> again."""
    partial, old = path + ".partial", path + ".old"
    if os.path.exists(old) and not os.path.exists(path):
        os.rename(old, path)
    for stale in (old, partial):
        if os.path.exists(stale):
            shutil.rmtree(stale)
    os.makedirs(partial)
    fill(partial)
    replace = os.path.isdir(path)  # a file at <path> fails the rename below
    if replace:
        os.rename(path, old)
    os.rename(partial, path)
    if replace:
        shutil.rmtree(old)


def _plotfile_writer(meshes, header, mode):
    """Snapshot the meshes now; returns fill(directory), which writes the
    plotfile into that fresh directory, Header last."""
    if len(meshes) != header.nlevels:
        raise ValueError("one mesh FabArray per header level required")
    header_text = _header_text(header, meshes)
    levels = []
    for mesh in meshes:
        # the packed records are the valid values in ngrow=0 arena order
        snapshot = mesh.valid_values()
        snapshot = snapshot.astype("<f8", copy=snapshot is mesh.arena)
        offsets, sizes, _ = _record_layout(mesh.ba, mesh.ncomp)
        owners = np.array(mesh.dm.owner, dtype=np.int64)
        levels.append((snapshot, owners, offsets.tolist(), sizes.tolist(), mesh.dm.nranks))
    nwriters = mode.nwriters if mode.kind == "static" else 1

    def fill(path):
        for lev, level in enumerate(levels):
            os.mkdir(os.path.join(path, f"Level_{lev}"))
            _write_level_records(os.path.join(path, f"Level_{lev}", "data.bin"), level, nwriters)
        with open(os.path.join(path, "Header"), "w") as fh:
            fh.write(header_text)

    return fill


def write_plotfile(path, meshes, header, mode=None, transport=None):
    """Write one plotfile; returns a WriteHandle (already done when static)."""
    mode = OutputMode.static(1) if mode is None else mode
    fill = _plotfile_writer(meshes, header, mode)
    if mode.kind == "async":
        return _async_writer.submit(lambda: _publish(path, fill))
    _publish(path, fill)
    handle = WriteHandle()
    handle._finish()
    return handle


class _HeaderReader:
    def __init__(self, path):
        try:
            with open(path) as fh:
                self.lines = [ln.rstrip("\n") for ln in fh]
        except OSError as exc:
            raise IOError(f"cannot read header at {path}: {exc}") from exc
        self.at = 0

    def next(self, expect=None):
        line = self.lines[self.at]
        self.at += 1
        if expect is not None and not line.startswith(expect):
            raise ValueError(f"malformed header: wanted {expect!r}, got {line!r}")
        return line.split()


def read_plotfile(path, nranks=1):
    """(header, meshes): metadata plus one ngrow=0 FabArray per level."""
    rd = _HeaderReader(os.path.join(path, "Header"))
    tag = rd.lines[0]
    if tag != PLOTFILE_TAG:
        raise ValueError(f"not a plotfile (version tag {tag!r})")
    rd.at = 1
    rd.next("endian")
    rd.next("real")
    time = float(rd.next("time")[1])
    dim = int(rd.next("dim")[1])
    nlevels = int(rd.next("nlevels")[1])
    comp_parts = rd.next("components")
    names = comp_parts[2 : 2 + int(comp_parts[1])]
    prob_lo = [float(x) for x in rd.next("prob_lo")[1:]]
    prob_hi = [float(x) for x in rd.next("prob_hi")[1:]]
    periodic = [bool(int(x)) for x in rd.next("periodic")[1:]]
    geoms, meshes = [], []
    ncol = 2 * dim + 3
    for lev in range(nlevels):
        rd.next("level")
        dom = rd.next("domain")[1:]
        rd.next("cell_size")
        nboxes = int(rd.next("nboxes")[1])
        # the box lines as one int table: lo, hi, record offset and size
        lines = rd.lines[rd.at : rd.at + nboxes]
        words = " ".join(lines).split()
        if len(words) != nboxes * ncol or words[::ncol] != ["box"] * nboxes:
            bad = [ln for ln in lines if ln.split()[:1] != ["box"] or len(ln.split()) != ncol]
            raise ValueError(f"malformed header: wanted {nboxes} box lines, got {bad[:1]!r}")
        rd.at += nboxes
        del words[::ncol]
        table = np.array(words, dtype=np.int64).reshape(nboxes, ncol - 1)
        domain = Box(IntVect(dom[:dim]), IntVect(dom[dim : 2 * dim]))
        geoms.append(Geometry(domain, prob_lo, prob_hi, periodic))
        ba = BoxArray(table[:, : 2 * dim].reshape(nboxes, 2, dim), IndexType.cell(dim))
        dm = (
            DistributionMapping.single_rank(len(ba))
            if nranks == 1
            else DistributionMapping([i % nranks for i in range(len(ba))], nranks)
        )
        mesh = FabArray(ba, dm, ncomp=len(names), ngrow=0)
        offsets, sizes, total = _record_layout(ba, mesh.ncomp)
        if not (np.array_equal(table[:, -2], offsets) and np.array_equal(table[:, -1], sizes)):
            raise ValueError(f"level {lev}: records are not packed in box order")
        # packed comp-major records in box order are the ngrow=0 arena's bytes
        fname = os.path.join(path, f"Level_{lev}", "data.bin")
        with open(fname, "rb") as fh:
            got = fh.readinto(memoryview(mesh.arena).cast("B"))
        if got != total:
            raise ValueError(f"level {lev}: {fname} holds {got} of {total} bytes")
        if sys.byteorder != "little":
            mesh.arena.byteswap(inplace=True)
        meshes.append(mesh)
    header = PlotfileHeader(time, names, geoms)
    return header, meshes


# ---------------------------------------------------------------------------
# particles
# ---------------------------------------------------------------------------


def _particle_formats(dim, nreal, nint):
    """(file dtype, bytes per particle) of each column of a particle dump,
    in the order a tile holds them: id, origin, pos, then each real and
    each int component."""
    return [("<i8", 8), ("<i4", 4), ("<f8", 8 * dim)] + [("<f8", 8)] * nreal + [("<i8", 8)] * nint


def write_particles(path, pc):
    """Dump every tile's records: each tile's run of every column of the
    container's store, tile after tile, joined into one buffer and written
    at once; deterministic because the store is sorted by tile key and id."""
    os.makedirs(path, exist_ok=True)
    counts = np.diff(pc.starts)
    formats = _particle_formats(pc.dim, pc.nreal, pc.nint)
    rec = sum(w for _, w in formats)
    lines = [
        PARTICLE_TAG,
        "endian little",
        f"dim {pc.dim}",
        f"nreal {pc.nreal}",
        f"nint {pc.nint}",
        f"ntiles {len(counts)}",
    ]
    at = 0
    for (lev, grid, tile), n in zip(pc.keys.tolist(), counts.tolist()):
        lines.append(f"tile {lev} {grid} {tile} {n} {at} {n * rec}")
        at += n * rec
    with open(os.path.join(path, "Header"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    n = pc.aos.shape[0]
    columns = [
        np.ascontiguousarray(c, dtype=fmt).view(np.uint8).reshape(n, width)
        for c, (fmt, width) in zip(
            [pc.aos["id"], pc.aos["origin"], pc.aos["pos"], *pc.rdata, *pc.idata], formats
        )
    ]
    # every tile's run of every column, tile after tile; the empty run
    # keeps a dump without tiles whole
    bounds = pc.starts.tolist()
    runs = [c[a:b] for a, b in zip(bounds, bounds[1:]) for c in columns]
    with open(os.path.join(path, "data.bin"), "wb") as fh:
        fh.write(np.concatenate(runs + [columns[0][:0]], axis=None))


def _read_particle_columns(path, expect_schema):
    """(meta, tile keys (T, 3), counts (T,), (ids, origin, pos, rdata,
    idata)) of a dump; each column joins its runs of every tile at once."""
    rd = _HeaderReader(os.path.join(path, "Header"))
    if rd.lines[0] != PARTICLE_TAG:
        raise ValueError(f"not a particle dump (version tag {rd.lines[0]!r})")
    rd.at = 1
    rd.next("endian")
    dim = int(rd.next("dim")[1])
    nreal = int(rd.next("nreal")[1])
    nint = int(rd.next("nint")[1])
    if expect_schema is not None and expect_schema != (dim, nreal, nint):
        raise ValueError(
            f"schema mismatch: file has (dim, nreal, nint)={(dim, nreal, nint)}, "
            f"expected {expect_schema}"
        )
    ntiles = int(rd.next("ntiles")[1])
    table = np.array([rd.next("tile")[1:6] for _ in range(ntiles)], dtype=np.int64)
    table = table.reshape(-1, 5)
    counts, n = table[:, 3], int(table[:, 3].sum())
    formats = _particle_formats(dim, nreal, nint)
    rec = sum(w for _, w in formats)
    if not np.array_equal(table[:, 4], (np.cumsum(counts) - counts) * rec):
        raise ValueError("particle records are not packed in tile order")
    fname = os.path.join(path, "data.bin")
    raw = b""
    if ntiles:
        with open(fname, "rb") as fh:
            raw = fh.read()
    if len(raw) < n * rec:
        raise ValueError(f"{fname} holds {len(raw)} of {n * rec} bytes")
    data = np.frombuffer(raw, np.uint8, n * rec)
    # every tile's run of every column, tile after tile
    ends = np.cumsum(counts[:, None] * [w for _, w in formats]).tolist()
    runs = [data[a:b] for a, b in zip([0] + ends, ends)]
    # each column joins its runs; the empty run keeps a dump without tiles whole
    columns = [
        np.concatenate(runs[k :: len(formats)] + [data[:0]]).view(fmt)
        for k, (fmt, _) in enumerate(formats)
    ]
    pos = columns[2].reshape(n, dim)
    rdata = np.array(columns[3 : 3 + nreal], dtype="<f8").reshape(nreal, n)
    idata = np.array(columns[3 + nreal :], dtype="<i8").reshape(nint, n)
    meta = {"dim": dim, "nreal": nreal, "nint": nint}
    return meta, table[:, :3], counts, (columns[0], columns[1], pos, rdata, idata)


def read_particles(path, expect_schema=None):
    """(meta, {tile key: (ids, origin, pos, rdata, idata)}), each tile's
    arrays slices of whole columns."""
    meta, keys, counts, (ids, origin, pos, rdata, idata) = _read_particle_columns(
        path, expect_schema
    )
    bounds = np.append(0, np.cumsum(counts)).tolist()
    records = {
        tuple(key): (ids[a:b], origin[a:b], pos[a:b], rdata[:, a:b], idata[:, a:b])
        for key, a, b in zip(keys.tolist(), bounds, bounds[1:])
    }
    return meta, records


def load_particles_into(pc, path):
    """Replace pc's particles with the dump's contents (schema must match)."""
    from .particles import _aos_dtype, _store_rows

    _, keys, counts, (ids, origin, pos, rdata, idata) = _read_particle_columns(
        path, (pc.dim, pc.nreal, pc.nint)
    )
    aos = np.zeros(ids.shape[0], dtype=_aos_dtype(pc.dim))
    aos["id"], aos["origin"], aos["pos"] = ids, origin, pos
    _store_rows(pc, aos, rdata, idata, np.repeat(keys, counts, axis=0), np.arange(aos.shape[0]))
    pc.epoch += 1


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(
    path, meshes, header, step, user_blob=b"", pc=None, mode=None, transport=None
):
    """Hierarchy metadata + level data + opaque payload, restart-complete."""
    mode = OutputMode.static(1) if mode is None else mode
    lines = [
        CHECKPOINT_TAG,
        f"step {int(step)}",
        f"time {header.time!r}",
        f"nranks {meshes[0].dm.nranks}",
        f"nlevels {len(meshes)}",
    ]
    for lev, mesh in enumerate(meshes):
        lines.append(f"owners {lev} " + _fmt_ints(mesh.dm))
    lines.append(f"blob {len(user_blob)}")
    lines.append(f"particles {1 if pc is not None else 0}")
    fill_mesh = _plotfile_writer(meshes, header, mode)

    def fill(path):
        with open(os.path.join(path, "blob.bin"), "wb") as fh:
            fh.write(user_blob)
        os.mkdir(os.path.join(path, "mesh"))
        fill_mesh(os.path.join(path, "mesh"))
        if pc is not None:
            write_particles(os.path.join(path, "particles"), pc)
        with open(os.path.join(path, "Header"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    _publish(path, fill)


def read_checkpoint(path):
    """{step, time, nranks, owners, header, meshes, blob, particles}."""
    rd = _HeaderReader(os.path.join(path, "Header"))
    if rd.lines[0] != CHECKPOINT_TAG:
        raise ValueError(f"not a checkpoint (version tag {rd.lines[0]!r})")
    rd.at = 1
    step = int(rd.next("step")[1])
    time = float(rd.next("time")[1])
    nranks = int(rd.next("nranks")[1])
    nlevels = int(rd.next("nlevels")[1])
    owners = []
    for lev in range(nlevels):
        owners.append([int(x) for x in rd.next("owners")[2:]])
    nblob = int(rd.next("blob")[1])
    has_pc = bool(int(rd.next("particles")[1]))
    with open(os.path.join(path, "blob.bin"), "rb") as fh:
        blob = fh.read()
    if len(blob) != nblob:
        raise ValueError("checkpoint blob length mismatch")
    header, meshes = read_plotfile(os.path.join(path, "mesh"))
    particles = None
    if has_pc:
        particles = read_particles(os.path.join(path, "particles"))
    return {
        "step": step,
        "time": time,
        "nranks": nranks,
        "owners": owners,
        "header": header,
        "meshes": meshes,
        "blob": blob,
        "particles": particles,
    }
