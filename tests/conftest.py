"""Test-session fixtures.

``sleeper`` is a method that only burns wallclock in ``meta_fit``, so
budget enforcement can be exercised without a slow real method.  It is
added to the method registry for the test session only; the production
registry holds just the six documented methods.
"""

import time

import numpy as np
import pytest

from fewbench import api, dataset


def _sleeper_meta_fit(p, episode_spec, meta_train, seed, clock, log_path):
    t0 = time.monotonic()
    while time.monotonic() - t0 < p["duration_seconds"]:
        if clock is not None:
            clock.check()
        time.sleep(0.05)
    return {}, api.Provenance(seed=seed)


SLEEPER = api.Method(
    params={"duration_seconds": 10.0},
    meta_fit=_sleeper_meta_fit,
    fit=lambda p, arrays, support_x, support_y, n_way: {},
    predict=lambda state, query_x: np.zeros(query_x.shape[:-1], dtype=np.int64),
    block_bytes=lambda p, arrays, n, k, q, d: 8 * (n * k + q) * d,
)


@pytest.fixture(autouse=True, scope="session")
def sleeper_method():
    api.METHODS["sleeper"] = SLEEPER
    yield
    del api.METHODS["sleeper"]


@pytest.fixture(autouse=True)
def fresh_feature_memo():
    """Each test starts and ends with no memoized feature tables, so what
    a test loads does not depend on the tests run before it."""
    dataset._memo.clear()
    yield
    dataset._memo.clear()
