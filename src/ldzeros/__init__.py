"""Quadratic Dirichlet L-functions over the family d = 8m, their derivatives,
real zeros of L', a random multiplicative model, and family-scale experiments.

Subpackages are organized by object: `characters` (the family and chi_d),
`lfunc` (certified evaluation of L, Lambda, L', -L'/L), `randmodel` (the
random multiplicative model), `selberg` (weighted Dirichlet polynomials),
`zeros` (certified zero counts and circle covers), `fekete` (Fekete
polynomials and Mellin identities), `stats` (family experiments), and
`harness` (configuration, caching, CLI drivers).

Importing the package sets OPENBLAS_NUM_THREADS=1 unless the caller has set
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS. It takes effect only where numpy
is not yet loaded: the CLI and scripts that import ldzeros first, whose
forked pool workers inherit it. A host program that imported numpy before
ldzeros keeps the BLAS thread count it started with.
"""

import os

# One BLAS thread per process. The products here (theta `chi @ expo`, the
# fast path's `x1 @ wo`, the Fekete grid GEMM) are small and frequent, and
# between them a second OpenBLAS thread spins instead of sleeping: it doubles
# CPU time and buys no wall time, and under --threads it competes with the
# pool. Measured on 2 cores (benchmarks/run.py medians, cpu_s): certify
# 4.18 -> 2.24 s, rd-sweep 1.50 -> 0.88 s, distribution 2.19 -> 1.29 s, with
# wall_s inside its run-to-run spread; `rd-stats --threads 2` wall 0.98 ->
# 0.68 s. This must run before numpy is first imported.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

CODE_VERSION_TAG = "ldzeros-" + __version__
