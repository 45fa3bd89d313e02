"""Sparse-grid discontinuity detection.

Locates the discontinuity interfaces of a function g: R^n -> R by placing
similar sparse grids recursively, classifying grid points as "troubled"
with a pluggable detector, and refining boxes around troubled points until
a minimum edge length is reached.  Ships a deterministic zero-level-set
detector, exact oracles for analytic cuts, and a trainable
graph-instructed neural detector with its full synthetic-data pipeline.
"""

from sgdetect.sparse_grid import (
    Box,
    GridSpec,
    SparseGrid,
    build_sparse_grid,
    multi_index_set,
    similar_grid,
)
from sgdetect.grid_graph import GridGraph, build_grid_graph
from sgdetect.engine import BoxTask, DetectionRun, EngineConfig, run_basic, run_batched

__all__ = [
    "Box",
    "GridSpec",
    "SparseGrid",
    "build_sparse_grid",
    "multi_index_set",
    "similar_grid",
    "GridGraph",
    "build_grid_graph",
    "BoxTask",
    "DetectionRun",
    "EngineConfig",
    "run_basic",
    "run_batched",
]

__version__ = "0.1.0"
