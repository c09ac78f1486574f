"""Per-layer metrics of a traced run, from spans, counters and workload stats.

Every traced run reports every metric below, so a layer that a workload does
not use reads 0 there; ``interactions.json`` says which workloads each layer
should move and on which it should stay flat.
"""

from __future__ import annotations

import sys

# Span names whose inclusive seconds (.s) and call counts (.calls) are reported.
TIMED = (
    ("coarse_fine.crse_add", True),
    ("coarse_fine.fine_add", True),
    ("coarse_fine.reflux", False),
    ("coarse_fine.fill_patch", True),
    ("coarse_fine.average_down", True),
    ("coarse_fine.interp_to_fine", False),
    ("fabarray.fill_boundary", True),
    ("fabarray.parallel_copy", True),
    ("fabarray.sum_boundary", True),
    ("fabarray.execute", False),
    ("fabarray.plan_build", True),
    ("amr_core.regrid", True),
    ("amr_core.cluster_tags", False),
    ("amr_core.enforce_proper_nesting", False),
    ("boxarray.intersections", True),
    ("distribution.sfc_distribute", True),
    ("transport.send", False),
    ("transport.drain", False),
    ("particles.redistribute", True),
    ("particles.particle_to_mesh", False),
    ("particles.mesh_to_particle", False),
    ("particles.fill_neighbors", False),
    ("particles.build_neighbor_list", False),
    ("kernels.neighbor_pairs", True),
    ("kernels.deposit_cic", True),
    ("kernels.gather_cic", True),
    ("eb.compute_moments", False),
    ("eb.prune", False),
    ("eb.build_level_set", False),
    ("eb.redistribute_small_cells", False),
    ("eb.csg_eval", False),
    ("plotfile.write_plotfile", True),
    ("plotfile.wait", False),
    ("plotfile.read_plotfile", False),
    ("plotfile.write_checkpoint", False),
    ("plotfile.read_checkpoint", False),
)

# Layers whose self time is reported as <layer>.self.s.
SELF_TIMED = ("advect", "coarse_fine", "fabarray", "amr_core", "particles", "eb", "plotfile")

# Derived metrics: (name, unit, better).
DERIVED = (
    ("fabarray.plans_built", "count", "lower"),
    ("fabarray.plan_cache_hit_ratio", "ratio", "higher"),
    ("fabarray.plan_cache_entries", "count", "lower"),
    ("fabarray.plan_cache_growth_per_regrid", "count", "lower"),
    ("amr_core.fine_boxes", "count", "lower"),
    ("amr_core.fine_cells", "count", "lower"),
    ("boxarray.hash_queries", "count", "lower"),
    ("boxarray.hash_bins_examined", "count", "lower"),
    ("boxarray.bins_per_query", "ratio", "lower"),
    ("distribution.load_efficiency", "ratio", "higher"),
    ("transport.messages", "count", "lower"),
    ("transport.bytes", "B", "lower"),
    ("transport.messages_per_step", "count", "lower"),
    ("particles.particles_redistributed", "count", "lower"),
    ("particles.moved_fraction", "ratio", "lower"),
    ("particles.halo_copies", "count", "lower"),
    ("particles.pairs", "count", "lower"),
    ("kernels.deposit_cic.bytes", "B", "lower"),
    ("kernels.gather_cic.bytes", "B", "lower"),
    ("eb.csg_points", "count", "lower"),
    ("eb.cut_cells", "count", "lower"),
    ("plotfile.io_bytes_written", "B", "lower"),
    ("plotfile.io_waves", "count", "lower"),
    ("plotfile.io_peak_writers", "count", "lower"),
    ("plotfile.records", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def declared():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span, with_calls in TIMED:
        out.append((f"{span}.s", "s", "lower"))
        if with_calls:
            out.append((f"{span}.calls", "count", "lower"))
    out.extend((f"{layer}.self.s", "s", "lower") for layer in SELF_TIMED)
    out.extend(DERIVED)
    return out


def plan_cache_entries():
    return len(getattr(sys.modules["amrkit.fabarray"], "_plan_cache", ()))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(wl, tracer, sums, nsteps, nrebuilds, entries0, overhead):
    """{name: (value, unit)} for every declared metric."""
    table = tracer.table()
    q = tracer.quantities
    stats = wl.stats
    values = {}
    for span, with_calls in TIMED:
        row = table.get(span, {"s": 0.0, "calls": 0})
        values[f"{span}.s"] = row["s"]
        if with_calls:
            values[f"{span}.calls"] = row["calls"]
    for layer in SELF_TIMED:
        values[f"{layer}.self.s"] = sum(
            row["self_s"] for name, row in table.items() if name.split(".")[0] == layer
        )
    builds = table.get("fabarray.plan_build", {"calls": 0})["calls"]
    growth = plan_cache_entries() - entries0
    regrids = table.get("amr_core.regrid", {"calls": 0})["calls"]
    queries = sums.get("hash_queries", 0)
    redistributes = table.get("particles.redistribute", {"calls": 0})["calls"]
    moved = sums.get("particles_redistributed", 0)
    values.update({
        "fabarray.plans_built": sums.get("plans_built", 0),
        "fabarray.plan_cache_hit_ratio": _ratio(tracer.lookups - builds, tracer.lookups),
        "fabarray.plan_cache_entries": growth,
        "fabarray.plan_cache_growth_per_regrid": _ratio(growth, regrids),
        "amr_core.fine_boxes": _ratio(stats.get("fine_boxes", 0), nsteps),
        "amr_core.fine_cells": _ratio(stats.get("fine_cells", 0), nsteps),
        "boxarray.hash_queries": queries,
        "boxarray.hash_bins_examined": sums.get("hash_bins_examined", 0),
        "boxarray.bins_per_query": _ratio(sums.get("hash_bins_examined", 0), queries),
        "distribution.load_efficiency": _ratio(
            stats.get("load_efficiency", 0.0), stats.get("layouts", 0)
        ),
        "transport.messages": sums.get("transport_messages", 0),
        "transport.bytes": sums.get("transport_bytes", 0),
        "transport.messages_per_step": _ratio(sums.get("transport_messages", 0), nsteps),
        "particles.particles_redistributed": moved,
        "particles.moved_fraction": _ratio(moved, redistributes * stats.get("particles", 0)),
        "particles.halo_copies": sums.get("halo_copies", 0),
        "particles.pairs": _ratio(stats.get("pairs", 0), nrebuilds),
        "kernels.deposit_cic.bytes": q.get("kernels.deposit_cic.bytes", 0),
        "kernels.gather_cic.bytes": q.get("kernels.gather_cic.bytes", 0),
        "eb.csg_points": q.get("eb.csg_points", 0),
        "eb.cut_cells": _ratio(stats.get("cut_cells", 0), nsteps),
        "plotfile.io_bytes_written": sums.get("io_bytes_written", 0),
        "plotfile.io_waves": sums.get("io_waves", 0),
        "plotfile.io_peak_writers": sums.get("io_peak_writers", 0),
        "plotfile.records": q.get("plotfile.records", 0),
        # the benchmark's own spans, bench.step and bench.rebuild
        "trace.unattributed_s": sum(
            row["self_s"] for name, row in table.items() if name.split(".")[0] == "bench"
        ),
        "trace.overhead": overhead,
    })
    return {name: (values[name], unit) for name, unit, _ in declared()}
