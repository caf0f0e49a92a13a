"""Shared oracles for the test suite.

The finite-difference machinery here is the independent gradient oracle:
it only ever calls forward evaluations, never the tape.
"""

import numpy as np
import pytest
from hypothesis import settings

from tsrmcl.tensor import Tensor

FD_STEP = 1e-5
FD_RTOL = 1e-4

# the one settings object of the property tests: reproducible, no example database
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def numeric_gradient(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += step
        xm[i] -= step
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * step)
    return grad


def assert_gradients_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = FD_RTOL):
    """Relative error against max(|a|, |n|, 1): tight for O(1) gradients,
    absolute below that scale (where FD noise dominates anyway)."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.max(np.abs(analytic - numeric) / denom)
    assert err <= rtol, f"gradient mismatch: max relative error {err:.3e} > {rtol:.1e}"


def check_op_gradient(build, x: np.ndarray, rtol: float = FD_RTOL):
    """Compare tape gradients of scalar-valued ``build(Tensor)`` at ``x``
    against central differences."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.backward()
    numeric = numeric_gradient(lambda arr: float(build(Tensor(arr)).data), x)
    assert t.grad is not None, "no gradient reached the input"
    assert_gradients_close(t.grad, numeric, rtol)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- acceptance reporting ----------------------------------------------------
#
# Tests marked @pytest.mark.acceptance("<criterion>") get one PASS/FAIL/SKIP
# line each in the terminal summary.

_criterion_by_nodeid: dict[str, str] = {}
_outcome_by_criterion: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(name): marks a test as one acceptance criterion"
    )


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            _criterion_by_nodeid[item.nodeid] = marker.args[0]


def pytest_runtest_logreport(report):
    name = _criterion_by_nodeid.get(report.nodeid)
    if name is None or report.when == "teardown":
        return
    if report.skipped:  # a skip in setup, or pytest.skip() in the test body
        _outcome_by_criterion[name] = "SKIP"
    elif report.failed:
        _outcome_by_criterion[name] = "FAIL"
    elif report.when == "call":
        _outcome_by_criterion[name] = "PASS"


def pytest_terminal_summary(terminalreporter):
    if not _outcome_by_criterion:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _outcome_by_criterion.items():
        terminalreporter.write_line(f"[{outcome}] {name}")
