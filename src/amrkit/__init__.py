"""amrkit: a desk-scale block-structured adaptive mesh refinement toolkit.

Pure-Python orchestration over numpy data.  Parallelism is simulated:
boxes are assigned to ranks by a DistributionMapping and data motion goes
through an in-process Transport that counts messages and bytes, so
communication-sensitive behavior can be tested deterministically on one
machine.
"""

from .index_space import Box, IndexType, IntVect, box_diff
from .boxarray import BoxArray, BoxHash
from .distribution import (
    DistributionMapping,
    knapsack_distribute,
    load_stats,
    sfc_distribute,
)
from .amr_core import AmrHierarchy, Geometry, GridGenParams
from .fabarray import FabArray, fill_boundary, parallel_copy, sum_boundary
from .transport import Transport
from .particles import (
    NeighborList,
    ParticleContainer,
    build_neighbor_list,
    fill_neighbors,
    keyed_uniforms,
    locate,
    mesh_to_particle,
    particle_to_mesh,
    redistribute,
    sum_neighbors,
    update_neighbors,
)
from .plotfile import (
    OutputMode,
    PlotfileHeader,
    WriteHandle,
    read_checkpoint,
    read_particles,
    read_plotfile,
    write_checkpoint,
    write_particles,
    write_plotfile,
)

__all__ = [
    "AmrHierarchy",
    "Box",
    "BoxArray",
    "BoxHash",
    "DistributionMapping",
    "FabArray",
    "Geometry",
    "GridGenParams",
    "IndexType",
    "IntVect",
    "NeighborList",
    "OutputMode",
    "ParticleContainer",
    "PlotfileHeader",
    "Transport",
    "WriteHandle",
    "box_diff",
    "build_neighbor_list",
    "fill_boundary",
    "fill_neighbors",
    "keyed_uniforms",
    "knapsack_distribute",
    "load_stats",
    "locate",
    "mesh_to_particle",
    "parallel_copy",
    "particle_to_mesh",
    "read_checkpoint",
    "read_particles",
    "read_plotfile",
    "redistribute",
    "sfc_distribute",
    "sum_boundary",
    "sum_neighbors",
    "update_neighbors",
    "write_checkpoint",
    "write_particles",
    "write_plotfile",
]

__version__ = "0.1.0"
