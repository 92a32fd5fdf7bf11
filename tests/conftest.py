import numpy as np
import pytest

import ridgeprec.estimators as estimators
import ridgeprec.linalg as linalg


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def make_spd():
    """Factory for random symmetric positive definite matrices."""

    def build(p: int, rng, ridge: float = 1.0) -> np.ndarray:
        B = rng.standard_normal((p, p))
        A = B @ B.T / p + ridge * np.eye(p)
        return 0.5 * (A + A.T)

    return build


@pytest.fixture
def symmetry_checks(monkeypatch):
    """Names passed to ``check_symmetric`` by linalg and estimators, in call order."""
    calls = []
    check = linalg.check_symmetric

    def counting(a, name="matrix", **kwargs):
        calls.append(name)
        return check(a, name, **kwargs)

    for module in (linalg, estimators):
        monkeypatch.setattr(module, "check_symmetric", counting)
    return calls
