"""Parallel execution substrate for the Two-Step hot path.

The paper's scalability argument is that both phases of Two-Step SpMV
decompose into independent shards: step 1's column stripes never touch
each other's intermediate vectors, and step 2's PRaP scheme gives each
of the ``p`` merge cores sole ownership of the residue class
``key mod p`` (section 4.2).  This package is the software realization
of that argument:

* :mod:`repro.parallel.pool` -- a :class:`WorkerPool` façade over
  ``concurrent.futures`` with three flavours: ``serial`` (n_jobs = 1),
  ``thread`` (default; the NumPy kernels release the GIL inside their C
  loops) and ``process`` (opt-in, for inputs large enough to amortize
  worker startup; big arrays travel through
  ``multiprocessing.shared_memory`` instead of pickle).
* :mod:`repro.parallel.workers` -- the top-level (picklable) functions
  a process pool executes.
* :mod:`repro.parallel.shm` -- zero-copy NumPy array transport over
  POSIX shared memory for the process pool.

The scheduling layer never changes arithmetic: every shard runs the
same vectorized kernels in the same stream order as the sequential
backends, so results stay ``np.array_equal`` and traffic ledgers stay
byte-identical regardless of ``n_jobs``.
"""

from __future__ import annotations

from repro.parallel.pool import WorkerPool, default_jobs

__all__ = ["WorkerPool", "default_jobs"]
