import numpy as np
import pytest

from c1rect import Family, StudyConfig, element_basis, run_study
from c1rect.poly2d import _differentiate

ALL_FAMILIES = (Family.ENRICHED_P, Family.BFS_Q)
ALL_DEGREES = (4, 5, 6, 7, 8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", params=ALL_DEGREES)
def degree(request):
    return request.param


def laplacian(c):
    """Laplacian of one coefficient array, on the same bidegree."""
    out = np.zeros_like(c)
    for d in ((2, 0), (0, 2)):
        term = _differentiate(c, *d)
        out[: term.shape[0], : term.shape[1]] += term
    return out


#: patch-test solution u = x^2 (1-x)^2 y^2 (1-y)^2, which lies in Q_4 and P_8
#: and is clamped; in u = 2x - 1 the factor x^2 (1-x)^2 is (1 - u^2)^2 / 16
_PATCH_FACTOR = np.array([1.0, 0.0, -2.0, 0.0, 1.0]) / 16.0
PATCH_U = np.outer(_PATCH_FACTOR, _PATCH_FACTOR)
#: its load lap^2 u
PATCH_F = laplacian(laplacian(PATCH_U))


_study_cache = {}


def cached_study(family, k, max_level):
    """Share the expensive study runs across test modules."""
    key = (Family(family), k, max_level)
    if key not in _study_cache:
        _study_cache[key] = run_study(
            StudyConfig(family=key[0], k=k, max_level=max_level))
    return _study_cache[key]


@pytest.fixture(scope="session")
def basis_of():
    return element_basis
