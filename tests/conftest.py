"""Import ldzeros before any test module imports numpy, so the suite runs
with the package's one-thread BLAS default (see ldzeros/__init__.py), as the
CLI does. A BLAS thread variable set by the caller is kept."""

import ldzeros  # noqa: F401
