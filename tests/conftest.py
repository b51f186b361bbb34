"""One BLAS thread per calling thread, set before any test module loads
numpy, as `stc/__init__.py` sets it for the program; and one Hypothesis
profile for every property test: derandomized, so that each run of the
suite draws the same examples, and without a deadline, since a slow host
must not fail a test. A test sets only its own `max_examples`."""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
