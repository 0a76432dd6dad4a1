import numpy as np
import pytest

from c1rect import Family, StudyConfig, element_basis, run_study

ALL_FAMILIES = (Family.ENRICHED_P, Family.BFS_Q)
ALL_DEGREES = (4, 5, 6, 7, 8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", params=ALL_DEGREES)
def degree(request):
    return request.param


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
