"""Synthetic workload generators.

The paper evaluates on three families of inputs:

* **Erdős–Rényi random graphs** (Table 6 ``Sy-*`` rows and the VLDI studies
  of Figs. 13-14) -- :func:`erdos_renyi_graph`.
* **Power-law / RMAT graphs** (Table 4 ``RMAT`` row and all social
  networks) -- :func:`rmat_graph`.
* **Named real-world datasets** (Tables 4, 5, 6) -- since the UF/KONECT
  collections are unavailable offline, :mod:`repro.generators.datasets`
  provides seeded synthetic stand-ins with the published node counts and
  average degrees (scaled for simulation, exact for analytic models).
"""

from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph
from repro.generators.mesh import mesh_graph
from repro.generators.datasets import (
    DatasetSpec,
    CUSTOM_HW_GRAPHS,
    GPU_GRAPHS,
    CPU_GRAPHS,
    get_dataset,
    instantiate,
)

__all__ = [
    "erdos_renyi_graph",
    "rmat_graph",
    "mesh_graph",
    "DatasetSpec",
    "CUSTOM_HW_GRAPHS",
    "GPU_GRAPHS",
    "CPU_GRAPHS",
    "get_dataset",
    "instantiate",
]
