"""Shared helpers: seeded random geometry generators and a global oracle.

Every generator takes an explicit numpy Generator so each test pins its own
seed; nothing here draws from global random state.
"""

import numpy as np
import pytest

from amrkit.boxarray import BoxArray
from amrkit.index_space import Box, IntVect
from amrkit.transport import Transport


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_box(rng, dim, span=24, max_ext=8):
    lo = [int(rng.integers(-span, span)) for _ in range(dim)]
    ext = [int(rng.integers(1, max_ext + 1)) for _ in range(dim)]
    return Box(IntVect(lo), IntVect([l + e - 1 for l, e in zip(lo, ext)]))


def random_cover(rng, domain, nsplits=6):
    """Disjoint BoxArray covering domain, built by random axis cuts."""
    boxes = [domain]
    for _ in range(nsplits):
        i = int(rng.integers(len(boxes)))
        b = boxes[i]
        ext = b.extents()
        axes = [d for d in range(b.dim) if ext[d] >= 2]
        if not axes:
            continue
        d = axes[int(rng.integers(len(axes)))]
        cut = b.lo[d] + int(rng.integers(1, ext[d]))
        lo_hi = list(b.hi.coords)
        lo_hi[d] = cut - 1
        hi_lo = list(b.lo.coords)
        hi_lo[d] = cut
        boxes[i : i + 1] = [Box(b.lo, IntVect(lo_hi)), Box(IntVect(hi_lo), b.hi)]
    return BoxArray(boxes)


def box_hits(ba, q):
    """(index, overlap) for every member of ba meeting the Box q, in
    ascending index: a one-row batch intersections query."""
    _, box, lo, hi = ba.intersections(np.array([[q.lo, q.hi]], dtype=np.int64))
    return [
        (i, Box(IntVect(l), IntVect(h), q.ixtype))
        for i, l, h in zip(box.tolist(), lo.tolist(), hi.tolist())
    ]


def plan_pairs(plan, dm_src, dm_dst):
    """The (src rank, dst rank) pairs that the plan's rows connect."""
    return {(dm_src[i], dm_dst[j]) for i, j in zip(plan.src.tolist(), plan.dst.tolist())}


def fill_from_global(fa, domain, global_arr):
    """Load each fab's valid region from one dense array over domain."""
    for i in range(len(fa.ba)):
        b = fa.ba[i]
        sel = tuple(
            slice(b.lo[d] - domain.lo[d], b.hi[d] - domain.lo[d] + 1)
            for d in range(b.dim)
        )
        fa.fab(i).valid()[...] = global_arr[(slice(None),) + sel]


def global_index(domain, b):
    return tuple(
        slice(b.lo[d] - domain.lo[d], b.hi[d] - domain.lo[d] + 1)
        for d in range(b.dim)
    )


class FaultyTransport(Transport):
    """Transport that drops or duplicates the message with index `at`
    (counting every send), for delivery fault-injection tests."""

    def __init__(self, nranks, fault, at=0):
        super().__init__(nranks)
        if fault not in ("drop", "duplicate"):
            raise ValueError(f"unknown fault {fault!r}")
        self.fault = fault
        self.at = at
        self.sent = 0

    def send(self, src, dst, tag, payload):
        hit = self.sent == self.at
        self.sent += 1
        if hit and self.fault == "drop":
            return
        super().send(src, dst, tag, payload)
        if hit and self.fault == "duplicate":
            super().send(src, dst, tag, payload)


ACCEPTANCE_REPORT = []


def pytest_terminal_summary(terminalreporter):
    """Echo one PASS/FAIL line per acceptance criterion after the run."""
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
