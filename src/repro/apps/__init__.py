"""Graph-analytics applications built on the SpMV kernel.

The paper motivates the accelerator with iterative graph workloads;
PageRank is its explicit ITS use case (section 5.2).  These apps exercise
the public API end-to-end:

* :mod:`repro.apps.pagerank`   -- power iteration through the Two-Step /
  ITS engines.
* :mod:`repro.apps.bfs`        -- frontier-vector BFS as repeated SpMV.
* :mod:`repro.apps.components` -- connected components via min-label
  propagation (SpMV on the (min, min) semiring).
"""

from repro.apps.pagerank import pagerank, pagerank_reference, stochastic_matrix
from repro.apps.bfs import bfs_levels, bfs_levels_multi, bfs_levels_multi_spgemm
from repro.apps.components import connected_components
from repro.apps.spectral import PowerIterationResult, power_iteration
from repro.apps.sssp import sssp_bellman_ford
from repro.apps.triangles import count_triangles, count_triangles_reference, undirected_simple
from repro.apps.kcore import kcore_decomposition
from repro.apps.conjugate_gradient import CGResult, conjugate_gradient, spd_system

__all__ = [
    "pagerank",
    "pagerank_reference",
    "stochastic_matrix",
    "bfs_levels",
    "bfs_levels_multi",
    "bfs_levels_multi_spgemm",
    "connected_components",
    "PowerIterationResult",
    "power_iteration",
    "sssp_bellman_ford",
    "count_triangles",
    "count_triangles_reference",
    "undirected_simple",
    "kcore_decomposition",
    "CGResult",
    "conjugate_gradient",
    "spd_system",
]
