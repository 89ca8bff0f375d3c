import pytest

from hdindex.harness import bundled_corpus, load_bundled
from support import time_limit

# The most seconds one test may run, set-up included: far above the slowest
# test (about 2 s), so that a walk or a loop that never ends fails fast
# instead of hanging the suite.
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def per_test_time_limit(request):
    with time_limit(TEST_SECONDS, request.node.nodeid):
        yield


@pytest.fixture(scope="session")
def corpus():
    return bundled_corpus()


@pytest.fixture(scope="session")
def torus1():
    return load_bundled("torus_g1_1x.hd")


@pytest.fixture(scope="session")
def torus2():
    return load_bundled("torus_g1_2x.hd")


@pytest.fixture(scope="session")
def torus3():
    return load_bundled("torus_g1_3x.hd")


@pytest.fixture(scope="session")
def genus2():
    return load_bundled("genus2_bigons.hd")


@pytest.fixture(scope="session")
def genus2s1s2():
    return load_bundled("genus2_s1s2.hd")


@pytest.fixture(scope="session")
def genus3():
    return load_bundled("genus3_chain.hd")
