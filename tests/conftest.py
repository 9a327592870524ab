import functools

import pytest

from weylstrat.rootsys import LieType, build_root_system
from weylstrat.weyl import generate_group


@functools.cache
def system(family, rank):
    rs = build_root_system(LieType(family, rank))
    return rs, generate_group(rs)


@pytest.fixture
def sys_of():
    return system
