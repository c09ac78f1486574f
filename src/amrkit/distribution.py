"""Assign boxes to logical ranks by cost.

Two strategies: a Morton space-filling-curve split that keeps each rank's
boxes spatially contiguous along the curve, and a knapsack
(longest-processing-time) assignment that minimizes the worst rank load.
Costs default to cells per box but are treated opaquely, so timer-derived
costs plug in unchanged.
"""

from __future__ import annotations

import heapq

import numpy as np

from .index_space import Box, IntVect


class DistributionMapping:
    """owner[i] is the rank that holds box i of the paired BoxArray."""

    __slots__ = ("owner", "nranks")

    def __init__(self, owner, nranks):
        owner = tuple(int(r) for r in owner)
        nranks = int(nranks)
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        for r in owner:
            if not 0 <= r < nranks:
                raise ValueError(f"owner rank {r} outside 0..{nranks - 1}")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "nranks", nranks)

    def __setattr__(self, *a):
        raise AttributeError("DistributionMapping is immutable")

    def __len__(self):
        return len(self.owner)

    def __getitem__(self, i):
        return self.owner[i]

    def __iter__(self):
        return iter(self.owner)

    def __eq__(self, other):
        if not isinstance(other, DistributionMapping):
            return NotImplemented
        return self.owner == other.owner and self.nranks == other.nranks

    def __hash__(self):
        return hash((self.owner, self.nranks))

    def __repr__(self):
        return f"DistributionMapping(nranks={self.nranks}, owner={list(self.owner)})"

    def owned_indices(self, rank):
        return [i for i, r in enumerate(self.owner) if r == rank]

    @staticmethod
    def single_rank(nboxes):
        return DistributionMapping([0] * nboxes, 1)


def default_costs(ba):
    """Cost proportional to cells per box, the standard work estimate."""
    b = ba.bounds()
    return (b[:, 1] - b[:, 0] + 1).prod(axis=1).astype(np.float64)


def _key_bits(dim):
    return 63 // dim


def morton_key(center, domain):
    """Bit-interleaved curve position of an index point within domain.

    Coordinates are shifted by domain.lo so keys are non-negative; bit k of
    dimension d lands at key bit k*D + d, putting dimension 0 in the
    least-significant interleave slot.
    """
    if not isinstance(center, IntVect):
        center = IntVect(center)
    dim = center.dim
    bits = _key_bits(dim)
    key = 0
    for d in range(dim):
        c = center[d] - domain.lo[d]
        if c < 0 or c >= (1 << bits):
            raise ValueError(
                f"coordinate {center[d]} out of key range (needs 0 <= shifted < 2^{bits})"
            )
        for k in range(c.bit_length()):
            if c >> k & 1:
                key |= 1 << (k * dim + d)
    return key


def _box_center(b):
    return (b.lo + b.hi) // IntVect((2,) * b.dim)


def sfc_distribute(ba, cost, nranks):
    """Order boxes along the Morton curve, then split into nranks contiguous
    runs by greedy accumulation toward equal cost.

    Every rank with index < len(ba) receives at least one box.
    """
    nranks = int(nranks)
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    cost = np.asarray(cost, dtype=np.float64)
    if len(cost) != len(ba):
        raise ValueError("cost length must match BoxArray length")
    n = len(ba)
    domain = ba.minimal_box() if n else Box.empty(1)
    order = sorted(range(n), key=lambda i: (morton_key(_box_center(ba[i]), domain), i))
    owner = [0] * n
    total = float(cost.sum())
    pos = 0
    run_total = 0.0
    for rank in range(nranks):
        ranks_left = nranks - rank
        boxes_left = n - pos
        take = 0
        run = 0.0
        # leave one box for each remaining rank; last rank takes the tail
        max_take = boxes_left - (ranks_left - 1)
        target = (total - run_total) / ranks_left
        while take < max_take:
            c = cost[order[pos + take]]
            if take > 0 and run + c > target + 1e-12:
                break
            run += c
            take += 1
        if rank == nranks - 1:
            take = boxes_left
        for k in range(take):
            owner[order[pos + k]] = rank
        pos += take
        run_total += run
    return DistributionMapping(owner, nranks)


def knapsack_distribute(cost, nranks):
    """Longest-processing-time greedy: sort costs descending, give each to
    the currently least-loaded rank; ties broken toward the lower rank id."""
    nranks = int(nranks)
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    cost = np.asarray(cost, dtype=np.float64)
    owner = [0] * len(cost)
    heap = [(0.0, r) for r in range(nranks)]
    heapq.heapify(heap)
    for i in sorted(range(len(cost)), key=lambda i: (-cost[i], i)):
        load, rank = heapq.heappop(heap)
        owner[i] = rank
        heapq.heappush(heap, (load + float(cost[i]), rank))
    return DistributionMapping(owner, nranks)


def load_stats(dm, cost):
    """Per-rank loads plus efficiency = mean / max (1.0 for an idle layout)."""
    cost = np.asarray(cost, dtype=np.float64)
    if len(cost) != len(dm):
        raise ValueError("cost length must match mapping length")
    loads = np.zeros(dm.nranks)
    for i, r in enumerate(dm.owner):
        loads[r] += cost[i]
    max_load = float(loads.max()) if dm.nranks else 0.0
    mean_load = float(loads.mean()) if dm.nranks else 0.0
    eff = mean_load / max_load if max_load > 0 else 1.0
    return {
        "loads": loads,
        "max_load": max_load,
        "mean_load": mean_load,
        "efficiency": eff,
    }
