import os

import pytest

from ktq import classify, parse_algebra, parse_correspondence, parse_diagram
from ktq import homology as _homology

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_algebra(name):
    return classify(parse_algebra(fixture_text(name)))


def load_diagram(name):
    return parse_diagram(fixture_text(name))


def load_correspondence(name):
    return parse_correspondence(fixture_text(name))


@pytest.fixture(scope="session")
def z3linear():
    return load_algebra("z3linear.ktq")


@pytest.fixture(scope="session")
def z5affine():
    return load_algebra("z5affine.ktq")


@pytest.fixture(scope="session")
def z2sum():
    return load_algebra("z2sum.ktq")


@pytest.fixture(scope="session")
def z2sum1():
    return load_algebra("z2sum1.ktq")


@pytest.fixture(scope="session")
def z3sum():
    return load_algebra("z3sum.ktq")


@pytest.fixture(scope="session")
def order1():
    return load_algebra("order1.ktq")


@pytest.fixture(scope="session")
def samples(z3linear, z5affine, z2sum, z2sum1, z3sum, order1):
    """All shipped sample algebras (not all are KTQs)."""
    return [order1, z2sum, z2sum1, z3sum, z3linear, z5affine]


@pytest.fixture
def cleared_caches():
    """Clear the cached reduction and differentials before and after the
    test, so that it counts its own builds and cache hits and leaves none
    behind, even when it fails."""
    caches = (_homology._reduction, _homology.boundary_columns)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
