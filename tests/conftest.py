"""Pin BLAS to one thread before any test module imports numpy.

OpenBLAS spawns one thread per core by default; on a busy two-core host its
small LAPACK calls then slow many times over (the theta tests went from
1.7 s to as much as 8 s).  The variables only take effect while numpy is
not yet imported, which holds when pytest loads this file.  Values set by
the caller are kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
