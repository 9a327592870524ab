import functools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from weylstrat.rootsys import (
    LieType,
    build_root_system,
    expected_root_count,
    vec_neg,
    vec_scale,
)
from conftest import RANK_SIX_TYPES, SUPPORTED_TYPES, coroot_labels, pairing_tables, root_coords, system

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_counts_and_negation(family, rank):
    rs, _ = system(family, rank)
    assert len(rs.roots) == expected_root_count(rs.lie_type)
    roots = set(rs.roots)
    for a in rs.roots:
        assert vec_neg(a) in roots
    for i in range(rs.num_positive):
        assert rs.negative_index(i) == i + rs.num_positive
        assert rs.roots[rs.negative_index(i)] == vec_neg(rs.roots[i])


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_crystallographic_condition(family, rank):
    rs, _ = system(family, rank)
    for a in rs.roots:
        for b in rs.roots:
            v = 2 * rs.pairing(a, b) / rs.pairing(b, b)
            assert v.denominator == 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 2), ("D", 4)])
def test_roots_have_uniform_sign_coordinates(family, rank):
    # every root is an all-nonnegative or all-nonpositive integer mix of simple roots
    rs, _ = system(family, rank)
    for i, a in enumerate(rs.roots):
        coords = root_coords(rs, rs.root_labels(i))
        assert all(c.denominator == 1 for c in coords)
        assert all(c >= 0 for c in coords) or all(c <= 0 for c in coords)


@functools.cache
def root_system(family, rank):
    """The root system alone: no Weyl group, which is large at rank 6."""
    return build_root_system(LieType(family, rank))


@st.composite
def typed_labels(draw):
    family, rank = draw(st.sampled_from(RANK_SIX_TYPES))
    labels = draw(st.lists(st.integers(-30, 30), min_size=rank, max_size=rank))
    return family, rank, tuple(labels)


@settings(max_examples=300, deadline=None)
@given(typed_labels())
def test_scaled_norm_matches_vector_pairing(case):
    # the oracle goes through coordinate vectors, so it never reads rs.gram
    family, rank, labels = case
    rs = root_system(family, rank)
    v = rs.from_labels(labels)
    exact = rs.pairing(v, v)
    scaled = rs.scaled_norm(labels)
    assert type(scaled) is int
    assert scaled == rs.norm_den * exact
    assert rs.labels_norm_sq(labels) == exact


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_integer_forms(family, rank):
    rs = root_system(family, rank)
    odd = rank % 2
    assert rs.norm_den == {"A": rank + 1, "B": 1 + odd, "C": 1, "D": 2 + 2 * odd}[family]
    for row, scaled in zip(rs.cartan_inverse, rs.scaled_cartan_inverse):
        assert [Q(x, rs.cartan_den) for x in scaled] == row
        assert all(type(x) is int for x in scaled)
    weights = rs.fundamental_weights()
    for p in range(rs.num_positive):
        pairings = [rs.pairing(w, rs.roots[p]) for w in weights]
        assert rs.komega[p] == pairings
        assert all(type(x) is int for x in rs.komega[p])


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_reflection_perms_match_fraction_reflections(family, rank):
    # the integer permutations against rs.reflect on Fraction coordinates
    rs = root_system(family, rank)
    for a, perm in zip(rs.roots, rs.reflection_perms()):
        assert perm == tuple(rs.index[rs.reflect(a, b)] for b in rs.roots), a
    # the Fraction coroot labels behind the dense label-matrix oracle of the tests
    rows = coroot_labels(rs)
    assert all(x.denominator == 1 for row in rows for x in row)
    assert [rows[s] for s in rs.simple_indices] == [
        tuple(int(i == j) for i in range(rank)) for j in range(rank)
    ]
    for i, row in enumerate(rows):
        assert rows[rs.negative_index(i)] == tuple(-x for x in row)


def test_rank_bounds_rejected():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 6)]:
        with pytest.raises(ValueError):
            LieType(family, rank)


def test_short_roots_have_norm_two():
    for family, rank in ALL_TYPES:
        rs, _ = system(family, rank)
        assert min(rs.root_norms) == 2


def test_c2_explicit_root_set():
    rs, _ = system("C", 2)
    alpha, beta = rs.simple_roots
    expected = set()
    for v in [alpha, beta,
              tuple(a + b for a, b in zip(alpha, beta)),
              tuple(2 * a + b for a, b in zip(alpha, beta))]:
        expected.add(v)
        expected.add(vec_neg(v))
    assert set(rs.roots) == expected


def test_pairing_symmetry_and_length_proportions():
    rs, _ = system("C", 2)
    alpha, beta = rs.simple_roots
    assert rs.pairing(alpha, beta) == rs.pairing(beta, alpha)
    # short/long data matching the rank-2 example: k(a,b)/k(a,a) = -1
    assert rs.pairing(alpha, beta) / rs.pairing(alpha, alpha) == -1
    assert rs.pairing(beta, beta) / rs.pairing(alpha, alpha) == 2
    # long root of C2 has squared length 4 under short-length-2 normalization
    assert rs.pairing(beta, beta) == 4


def test_pairing_dimension_mismatch():
    rs, _ = system("A", 2)
    with pytest.raises(ValueError):
        rs.pairing((Q(1), Q(0)), rs.delta)


def test_delta_has_unit_labels():
    for family, rank in ALL_TYPES:
        rs, _ = system(family, rank)
        assert rs.to_labels(rs.delta) == tuple(1 for _ in range(rank))
        for a in rs.simple_roots:
            coroot = vec_scale(2 / rs.pairing(a, a), a)
            assert rs.pairing(rs.delta, coroot) == 1


def test_label_round_trip_random():
    rng = random.Random(7)
    for family, rank in ALL_TYPES:
        rs, _ = system(family, rank)
        for _ in range(100):
            labels = tuple(rng.randint(-6, 6) for _ in range(rank))
            assert rs.to_labels(rs.from_labels(labels)) == labels
        assert rs.to_labels(rs.from_labels([0] * rank)) == tuple([0] * rank)


def test_a1_weight_scaling():
    # weight with label k equals (k/2) * alpha
    rs, _ = system("A", 1)
    alpha = rs.simple_roots[0]
    for k in range(5):
        assert rs.from_labels([k]) == vec_scale(Q(k, 2), alpha)


def test_non_lattice_weight_reported():
    rs, _ = system("A", 2)
    bad = vec_scale(Q(1, 2), rs.simple_roots[0])
    with pytest.raises(ValueError, match="non-lattice"):
        rs.to_labels(bad)
    with pytest.raises(ValueError):
        rs.to_labels((Q(1), Q(0), Q(0)))  # nonzero trace


def test_dual_roots():
    rs, _ = system("C", 2)
    alpha, beta = rs.simple_roots
    assert rs.dual_root(alpha) == alpha  # short
    assert rs.dual_root(beta) == vec_scale(Q(1, 2), beta)  # long
    for a in rs.roots:
        d = rs.dual_root(a)
        assert vec_scale(2 / rs.pairing(d, d), d) == a  # dual of the dual
    rs_a, _ = system("A", 3)
    for a in rs_a.roots:
        assert rs_a.dual_root(a) == a
    with pytest.raises(ValueError):
        rs.dual_root(vec_scale(3, alpha))


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_integer_tables_match_pairing_construction(family, rank):
    # every table built from integer dot products equals its Fraction-pairing build
    rs = root_system(family, rank)
    want = pairing_tables(rs)
    got = {
        "delta": rs.delta,
        "root_norms": rs.root_norms,
        "cartan": rs.cartan,
        "root_labels": [rs.root_labels(i) for i in range(len(rs.roots))],
        "cartan_inverse": rs.cartan_inverse,
        "cartan_den": rs.cartan_den,
        "scaled_cartan_inverse": rs.scaled_cartan_inverse,
        "fundamental_weights": rs.fundamental_weights(),
        "norm_den": rs.norm_den,
        "gram": rs.gram,
        "komega": rs.komega,
    }
    assert got == want
    assert all(type(x) is int for x in rs.root_norms)
    assert all(type(x) is Q for w in rs.fundamental_weights() for x in w)
    assert all(type(x) is Q for x in rs.delta)
