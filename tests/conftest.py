import pytest

from hdindex.harness import bundled_corpus, load_bundled


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
