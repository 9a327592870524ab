import itertools

import pytest
from hypothesis import given, settings, strategies as st

from weylstrat.costrat import dominant_labels_within
from weylstrat.repthy import dominant_weight_system
from weylstrat.weyl import shifted_fold
from conftest import apply_labels, root_coords, system, tensor_coeff, weyl_dim


# -- independent oracles -------------------------------------------------------


def kostant_partition(rs, labels, memo=None, pmax=None):
    """Number of ways to write the vector as a nonnegative sum of positive roots."""
    if pmax is None:
        pmax = rs.num_positive - 1
    if memo is None:
        memo = {}
    key = (labels, pmax)
    if key in memo:
        return memo[key]
    if pmax < 0:
        return 1 if all(l == 0 for l in labels) else 0
    total = 0
    cur = labels
    root = rs.root_labels(pmax)
    while True:
        coords = root_coords(rs, cur)
        if not all(c >= 0 and c.denominator == 1 for c in coords):
            break
        total += kostant_partition(rs, cur, memo, pmax - 1)
        cur = tuple(a - b for a, b in zip(cur, root))
    memo[key] = total
    return total


def kostant_multiplicity(rs, wg, lam, mu):
    total = 0
    shifted = tuple(l + 1 for l in lam)
    for w in wg.elements:
        v = apply_labels(rs, w, shifted)
        target = tuple(a - (b + 1) for a, b in zip(v, mu))
        total += w.sign * kostant_partition(rs, target)
    return total


def su2_char(k):
    return {j: 1 for j in range(-k, k + 1, 2)}


def su2_char_product(k1, k2):
    out = {}
    for a, ca in su2_char(k1).items():
        for b, cb in su2_char(k2).items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return out


def su2_decompose(poly):
    poly = dict(poly)
    mults = {}
    while any(poly.values()):
        top = max(d for d, c in poly.items() if c)
        m = poly[top]
        mults[top] = m
        for d, c in su2_char(top).items():
            poly[d] = poly.get(d, 0) - m * c
    return mults


# -- tests ----------------------------------------------------------------------


def test_weight_system_small():
    rs, wg = system("A", 1)
    ws = dominant_weight_system(rs, wg, (2,))
    assert ws.dominant_entries == {(2,): 1, (0,): 1}

    rs2, wg2 = system("A", 2)
    ws2 = dominant_weight_system(rs2, wg2, (1, 1))
    assert ws2.dominant_entries == {(1, 1): 1, (0, 0): 2}
    assert ws2.dominant_entries[ws2.highest] == 1

    with pytest.raises(ValueError):
        dominant_weight_system(rs2, wg2, (-1, 0))


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("D", 4)],
)
def test_freudenthal_matches_kostant(family, rank):
    rs, wg = system(family, rank)
    top = 4 if rank < 3 else 2
    lams = [
        l
        for l in itertools.product(range(top + 1), repeat=rank)
        if sum(l) <= top
    ]
    for lam in lams:
        ws = dominant_weight_system(rs, wg, lam)
        for mu, m in ws.dominant_entries.items():
            assert m == kostant_multiplicity(rs, wg, lam, mu), (lam, mu)


def test_weight_system_total_dimension():
    for family, rank, lam in [("A", 2, (1, 1)), ("A", 2, (2, 2)), ("B", 2, (1, 2)), ("C", 2, (2, 0))]:
        rs, wg = system(family, rank)
        ws = dominant_weight_system(rs, wg, lam)
        total = sum(len(wg.orbit_labels(mu)) * m for mu, m in ws.dominant_entries.items())
        assert total == weyl_dim(rs, lam)


@st.composite
def small_dominant(draw):
    family, rank = draw(st.sampled_from([("A", 4), ("A", 5), ("B", 4), ("C", 4), ("D", 5)]))
    lam = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank).filter(
        lambda l: sum(l) <= 3
    ))
    return family, rank, tuple(lam)


@settings(max_examples=40, deadline=None)
@given(small_dominant())
def test_weight_system_dimension_property(case):
    # ranks with no golden data: the orbits of the dominant weights fill the irrep
    family, rank, lam = case
    rs, wg = system(family, rank)
    ws = dominant_weight_system(rs, wg, lam)
    total = sum(len(wg.orbit_labels(mu)) * m for mu, m in ws.dominant_entries.items())
    assert total == weyl_dim(rs, lam)


def test_weyl_dim_values():
    rs, _ = system("A", 1)
    assert weyl_dim(rs, (0,)) == 1
    assert weyl_dim(rs, (2,)) == 3
    rs2, _ = system("A", 2)
    assert weyl_dim(rs2, (1, 1)) == 8
    assert weyl_dim(rs2, (2, 2)) == 27
    assert weyl_dim(rs2, (0, 3)) == 10
    with pytest.raises(ValueError):
        weyl_dim(rs2, (-1, 0))


def one_point(wg, lam, lam2, mu):
    """Sign of the unique w with w(lam + mu + delta) = lam2 + delta, else 0."""
    return shifted_fold(wg, [(mu, 1)], lam).get(lam2, 0)


def one_orbit(wg, lam, lam2, mu):
    """The fold of the Weyl orbit of the dominant mu, each point with coefficient one, at row lam2."""
    return shifted_fold(wg, [(nu, 1) for nu in wg.orbit_labels(mu)], lam).get(lam2, 0)


def test_fold_over_one_point():
    rs, wg = system("A", 1)
    # identity case: lam + mu already dominant and equal to target
    assert one_point(wg, (0,), (2,), (2,)) == 1
    # shifted point lands on a wall: contributes nothing
    assert one_point(wg, (0,), (0,), (-1,)) == 0
    assert shifted_fold(wg, [((-1,), 1)], (0,)) == {}
    # reflection case with negative sign
    assert one_point(wg, (0,), (0,), (-2,)) == -1

    rs2, wg2 = system("A", 2)
    assert one_point(wg2, (1, 0), (1, 0), (0, 0)) == 1
    # a label of lam + mu equal to -1 makes the shifted point singular
    assert one_point(wg2, (1, 0), (0, 0), (-2, 0)) == 0


def test_fold_over_one_orbit():
    rs, wg = system("A", 1)
    assert one_orbit(wg, (0,), (0,), (0,)) == 1
    assert one_orbit(wg, (0,), (2,), (0,)) == 0
    assert one_orbit(wg, (0,), (0,), (2,)) == -1
    # stable column: the fold picks out the shifted orbit with coefficient one
    assert one_orbit(wg, (4,), (6,), (2,)) == 1
    assert one_orbit(wg, (4,), (2,), (2,)) == 1
    assert one_orbit(wg, (4,), (4,), (2,)) == 0


def test_fold_keeps_rows_that_sum_to_zero():
    _, wg = system("A", 1)
    # (2,) lands on row 2 with sign +1, (-4,) on the same row with sign -1
    assert shifted_fold(wg, [((2,), 1), ((-4,), 1)], (0,)) == {(2,): 0}


def test_tensor_su2_against_character_polynomials():
    rs, wg = system("A", 1)
    for k1 in range(7):
        for k2 in range(7):
            expected = su2_decompose(su2_char_product(k1, k2))
            for k3 in range(k1 + k2 + 3):
                got = tensor_coeff(wg, (k1,), (k2,), (k3,))
                assert got == expected.get(k3, 0), (k1, k2, k3)


def test_tensor_trivial_factor_and_symmetry():
    rs, wg = system("A", 2)
    assert tensor_coeff(wg, (0, 0), (1, 1), (1, 1)) == 1
    assert tensor_coeff(wg, (0, 0), (1, 1), (1, 0)) == 0
    for l1, l2, l3 in [((1, 0), (0, 1), (1, 1)), ((1, 1), (1, 0), (0, 2))]:
        assert tensor_coeff(wg, l1, l2, l3) == tensor_coeff(wg, l2, l1, l3)


def test_tensor_dimension_bookkeeping():
    rs, wg = system("A", 2)
    lam = (1, 1)
    total = 0
    for lam2 in dominant_labels_within(rs, rs.labels_norm_sq((5, 5))):
        m = tensor_coeff(wg, lam, lam, lam2)
        total += m * weyl_dim(rs, lam2)
    assert total == weyl_dim(rs, lam) ** 2
