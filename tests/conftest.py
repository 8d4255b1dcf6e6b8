import numpy as np
import pytest


@pytest.fixture(autouse=True)
def fresh_symmetric_examples():
    """symmetric_example shares one instance per m across a process; each
    test starts from an empty cache, as a new process does."""
    from henneberg import period

    period._symmetric_example.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_configuration(rng, m, r_span=(1 / 3, 3.0)):
    """A random branch configuration of complexity m."""
    from henneberg import BranchConfiguration

    lo, hi = np.log(r_span[0]), np.log(r_span[1])
    rs = np.exp(rng.uniform(lo, hi, m + 1))
    ts = rng.uniform(0.0, 2 * np.pi, m + 1)
    return BranchConfiguration(tuple(rs), tuple(ts))


def random_annulus(rng, n, r_span=(0.25, 4.0)):
    r = np.exp(rng.uniform(np.log(r_span[0]), np.log(r_span[1]), n))
    theta = rng.uniform(0.0, 2 * np.pi, n)
    return r, theta
