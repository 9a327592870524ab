"""Self-consistency at rank 5, where the golden corpus has no data.

Class counts come from the factor-tuple oracle, and stabilizer orders, read
off factor lists, from a scan of all of W. The coefficient tables must satisfy
the identity sum rule and be independent of the class representative, and a
moved representative's stabilizer order is checked against the orbit walk of
its own root set. Tables are built only for classes with a small complement,
which keeps the gate to a few seconds.
"""

import random

import pytest

from weylstrat.relcoeff import coeff_table
from weylstrat.subsys import enumerate_classes, stabilizer_order
from conftest import identity_value, system, tuple_count_oracle, word_element
from test_relcoeff import moved_class

# complements of up to 20 roots: 16 classes over the four types
MAX_COMPLEMENT = 20


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_rank_five_self_consistency(family):
    rs, wg = system(family, 5)
    classes = enumerate_classes(rs, wg)
    assert len(classes) == tuple_count_oracle(family, 5)
    for cls in classes:
        members = cls.root_indices
        reps = wg.coset_representatives(members)
        stab = len(wg.setwise_stabilizer(members))
        assert len(reps) * stab == len(wg), cls.label
        assert stabilizer_order(rs, cls.factors) == stab, cls.label

    rng = random.Random(ord(family))
    small = [c for c in classes if len(rs.roots) - len(c) <= MAX_COMPLEMENT]
    assert small
    for cls in small:
        table = coeff_table(wg, cls)
        value = identity_value(rs, table)
        if len(cls) == len(rs.roots):
            assert value != 0
        else:
            assert value == 0, cls.label
        w = word_element(wg, rng, 12)
        moved_cls = moved_class(rs, cls, w)
        moved = coeff_table(wg, moved_cls)
        assert moved.entries == table.entries, cls.label
        assert moved.dominant_values == table.dominant_values, cls.label
        walk = wg.coset_representatives(moved_cls.root_indices)
        assert stabilizer_order(rs, moved_cls.factors) == len(wg) // len(walk), cls.label
