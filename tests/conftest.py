"""Shared fixtures.

The estimation stages are the slowest parts of the suite, so datasets,
fitted models, and gain schedules for the stock scenarios are built once
per session and shared read-only.

Property tests draw the same examples on every run (profile ``tier1``,
derandomized).  Those examples depend on the test's own source and also
on the literals Hypothesis harvests from the package modules (floats,
integers outside -100..100 and short strings, pooled over all of
``src/modru``): a change that adds or deletes such a constant anywhere in
the package shifts the examples of unrelated properties.  Two checkouts
compare test by test only when neither changes.
``--hypothesis-profile=explore`` draws fresh random examples.
"""

import warnings

import numpy as np
import pytest
from hypothesis import settings

from modru import config, harness

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore")
settings.load_profile("tier1")


def spectral_radius(A):
    """Largest eigenvalue modulus of a matrix, or of every matrix in a
    stack A of shape (k, n, n): the eigenvalue oracle of the stability
    verdicts."""
    return float(np.abs(np.linalg.eigvals(A)).max())


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # On a failing property Hypothesis's pytest plugin imports libcst, where
    # installed, to write a patch file.  libcst 1.0's import warns through
    # mypy_extensions, and under -W error::DeprecationWarning that warning
    # aborts the whole session instead of reporting the one failed test.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        yield


@pytest.fixture(scope="session")
def truck_sc():
    return config.default_truck_scenario()


@pytest.fixture(scope="session")
def truck_fit(truck_sc):
    """(data, model, eff, fit) for the default truck scenario."""
    data = harness.stage_dataset(truck_sc)
    model, eff, fit = harness.stage_estimate(truck_sc, data)
    return data, model, eff, fit


@pytest.fixture(scope="session")
def truck_model(truck_fit):
    return truck_fit[1]


@pytest.fixture(scope="session")
def truck_schedule(truck_sc, truck_model):
    return harness.stage_schedule(truck_sc, truck_model)


@pytest.fixture(scope="session")
def car_sc():
    return config.default_car_scenario()


@pytest.fixture(scope="session")
def car_fit(car_sc):
    data = harness.stage_dataset(car_sc)
    model, eff, fit = harness.stage_estimate(car_sc, data)
    return data, model, eff, fit


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)
