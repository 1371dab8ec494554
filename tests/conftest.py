import math

import pytest

from fracgreen import ProblemParams, QuadratureSpec


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def params_3half():
    """N=3, s=1/2, theta=1/pi (gamma ~ 0.258)."""
    return ProblemParams.from_theta(3, 0.5, 1.0 / math.pi)


@pytest.fixture(scope="session")
def params_3big():
    """N=3, s=1/2, gamma=0.8 (closer to the critical exponent)."""
    return ProblemParams.from_gamma(3, 0.5, 0.8)


@pytest.fixture(scope="session")
def params_2d():
    """N=2, s=0.4, gamma=0.3."""
    return ProblemParams.from_gamma(2, 0.4, 0.3)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for one test and returns
    the list that receives each call's positional arguments."""
    def install(owner, name):
        calls = []
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return install
