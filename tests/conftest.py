import os

# one BLAS thread, as the benchmark runs: set before anything imports numpy,
# and only where the caller has not chosen a count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

# one deterministic profile for every property test; numeric work can be slow
# under coverage so the deadline is off
settings.register_profile("dfoq", derandomize=True, deadline=None)
settings.load_profile("dfoq")
