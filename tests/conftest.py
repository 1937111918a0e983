"""Test-session setup shared by every test module."""

import os
import tempfile

# The suite runs many small solves, which multithreaded OpenBLAS slows down
# on a few cores.  This must be set before NumPy is first imported; a value
# the caller already exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# Hypothesis caches the literals it reads from source files in its storage
# directory, ./.hypothesis by default; keep that cache out of the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "localexplain-hypothesis"))
