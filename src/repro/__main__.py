"""``python -m repro`` — see :mod:`repro.cli`."""

import os
import sys

# No repro code multiplies matrices, so numpy's BLAS thread pool would only
# cost start-up CPU.  A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cli import main  # noqa: E402  (after the BLAS default)

sys.exit(main())
