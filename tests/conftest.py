"""Test-session setup shared by every test module."""

import os

# The suite runs many small solves, which multithreaded OpenBLAS slows down
# on a few cores.  This must be set before NumPy is first imported; a value
# the caller already exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
