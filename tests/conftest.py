"""One BLAS thread per calling thread, set before any test module loads
numpy, as `stc/__init__.py` sets it for the program."""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
