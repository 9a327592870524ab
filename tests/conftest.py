import functools

import pytest

from weylstrat.rootsys import LieType, build_root_system
from weylstrat.weyl import generate_group


# every classical type up to rank 6
RANK_SIX_TYPES = [
    (f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, 7)
]


@functools.cache
def system(family, rank):
    rs = build_root_system(LieType(family, rank))
    return rs, generate_group(rs)


@pytest.fixture
def sys_of():
    return system
