"""Timing of ``encoder.operator_norm``, the layer bound behind the Lipschitz certificate.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own, with one BLAS thread as the benchmark harness pins it:

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/microbench_operator_norm.py

Every layer of the benchmark workloads is 2 × 2, 2 × 3 or 8 × 2, so the
certificate's Gram matrix is 2 × 2 there; 64 × 64 shows how the Cholesky
check and the eigenvalue estimate grow with the smaller side. Each case
records the bound's relative excess over numpy's SVD value in
``extra_info``, computed once, untimed.
"""

import numpy as np
import pytest

from augbound.encoder import operator_norm


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (8, 2), (64, 64)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_operator_norm(benchmark, shape):
    w = np.random.default_rng(0).normal(size=shape) / np.sqrt(shape[1])
    bound = benchmark(operator_norm, w)
    svd = float(np.linalg.svd(w, compute_uv=False)[0])
    benchmark.extra_info["excess"] = bound / svd - 1.0
    assert bound >= svd
