"""Self-consistency at rank 6, past the golden corpus and the rank-5 gate.

Class counts come from the factor-tuple oracle, and every class whose
complement is small enough must satisfy the identity sum rule. W is never
enumerated: B6 and C6 have 46080 elements, so there is no stabilizer scan
and no moved representative here (tests/test_rank_five.py has both).
"""

import pytest

from weylstrat.relcoeff import coeff_table
from weylstrat.repthy import identity_value
from weylstrat.subsys import enumerate_classes
from conftest import system, tuple_count_oracle
from test_rank_five import MAX_COMPLEMENT

# the classes within MAX_COMPLEMENT roots of the whole system, which is the full class
SMALL_CLASSES = {
    "A": {"A1+A4", "A5", "A6"},
    "B": {"B1+B5", "D6", "B6"},
    "C": {"C1+C5", "D6", "C6"},
    "D": {"D5", "D6"},
}


@pytest.mark.parametrize("family, n_classes", [("A", 15), ("B", 113), ("C", 113), ("D", 29)])
def test_rank_six_self_consistency(family, n_classes):
    rs, wg = system(family, 6)
    classes = enumerate_classes(rs, wg)
    assert len(classes) == n_classes == tuple_count_oracle(family, 6)
    small = [c for c in classes if len(rs.roots) - len(c) <= MAX_COMPLEMENT]
    assert {c.label for c in small} == SMALL_CLASSES[family]
    for cls in small:
        value = identity_value(rs, coeff_table(wg, cls))
        if len(cls) == len(rs.roots):
            assert value != 0
        else:
            assert value == 0, cls.label
