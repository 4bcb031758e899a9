"""Shared fixtures. The expensive converter runs and the random linear-stack
suite are computed once per session and reused by the module tests and the
acceptance suite."""

from __future__ import annotations

import time

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs
from predsens import registry


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` replaces ``module.name`` by a wrapper
    that appends one entry per call, and returns the list of entries."""

    def install(module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def r2_stack():
    return registry.get_stack("r2")


@pytest.fixture(scope="session")
def tracking_stack():
    return registry.get_stack("tracking")


@pytest.fixture(scope="session")
def linear3_stack():
    return registry.get_stack("linear3")


@pytest.fixture(scope="session")
def random_linear_suite():
    """100 random affine stacks, N in {2, 3}, block dims 1..3, diagonal
    blocks shifted by -3 I so the fast diagonal totals stay invertible."""
    rng = np.random.default_rng(1234)
    stacks = []
    for _ in range(100):
        n = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(n)]
        blocks = [[rng.normal(size=(dims[i], dims[j]))
                   - (3.0 * np.eye(dims[i]) if i == j else 0.0)
                   for j in range(n)] for i in range(n)]
        stacks.append(ps.linear_stack(dims, blocks))
    return stacks


@pytest.fixture(scope="session")
def black_start_runs():
    """Black starts used across the suite: the three conditioned gain tiers
    at the documented defaults plus the plain run at the lowest tier on a
    horizon long enough to expose its slow exponential divergence."""
    runs = {}
    t0 = time.perf_counter()
    for kpi, kii in [(50.0, 100.0), (100.0, 200.0), (250.0, 500.0)]:
        params = cs.RlcParams(k_pi=kpi, k_ii=kii)
        runs[("predsens", kpi, kii)] = cs.run_black_start(
            params, ps.PredictiveSensitivity())
    tiers_elapsed = time.perf_counter() - t0
    params = cs.RlcParams(k_pi=50.0, k_ii=100.0)
    # instability grows at ~e^{0.85 t}; 3.5 s reaches 10 p.u. with margin
    runs[("plain", 50.0, 100.0)] = cs.run_black_start(
        params, ps.Plain(),
        ps.IntegrationSettings(method="rk4", dt=1e-4, t_end=3.5,
                               divergence_threshold=1e7))
    runs["tiers_elapsed"] = tiers_elapsed
    return runs
