import functools
import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from weylstrat.rootsys import LieType, build_root_system
from conftest import (
    RANK_SIX_TYPES, SUPPORTED_TYPES, cartan_inverse, coroot_labels, from_labels,
    fundamental_weights, half_sum, pairing, pairing_tables, reflect, root_coords, simple_roots,
    system, to_labels,
)

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
]


ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}


def neg(a):
    return tuple(-x for x in a)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_counts_and_negation(family, rank):
    rs, _ = system(family, rank)
    assert len(rs.roots) == ROOT_COUNT[family](rank)
    roots = set(rs.roots)
    for a in rs.roots:
        assert neg(a) in roots
    for i in range(rs.num_positive):
        assert rs.negative_index(i) == i + rs.num_positive
        assert rs.roots[rs.negative_index(i)] == neg(rs.roots[i])


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_crystallographic_condition(family, rank):
    rs, _ = system(family, rank)
    for a in rs.roots:
        for b in rs.roots:
            v = 2 * pairing(rs, a, b) / pairing(rs, b, b)
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


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_roots_are_the_textbook_lists(family, rank):
    # A_n: e_i - e_j in n + 1 coordinates; B_n, C_n, D_n: +-e_i +- e_j in n coordinates,
    # and +-e_i in B_n, +-2e_i in C_n (Bourbaki, Lie VI, planches I-IV)
    rs = root_system(family, rank)
    dim = rank + (family == "A")

    def vec(*terms):
        v = [0] * dim
        for i, c in terms:
            v[i] += c
        return tuple(v)

    want = {
        vec((i, s), (j, t))
        for i, j in itertools.combinations(range(dim), 2)
        for s, t in itertools.product((1, -1), repeat=2)
        if family != "A" or s == -t
    }
    if family in "BC":
        want |= {vec((i, s * (1 if family == "B" else 2))) for i in range(dim) for s in (1, -1)}
    assert len(rs.roots) == len(want) and set(rs.roots) == want
    # positives first, sorted: the lexicographically positive roots
    assert rs.roots[: rs.num_positive] == sorted(a for a in want if a > (0,) * dim)


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
    v = from_labels(rs, labels)
    exact = pairing(rs, v, v)
    scaled = rs.scaled_norm(labels)
    assert type(scaled) is int
    assert scaled == rs.norm_den * exact
    assert rs.labels_norm_sq(labels) == exact


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_integer_forms(family, rank):
    rs = root_system(family, rank)
    odd = rank % 2
    assert rs.norm_den == {"A": rank + 1, "B": 1 + odd, "C": 1, "D": 2 + 2 * odd}[family]
    for row, scaled in zip(cartan_inverse(rs), rs.scaled_cartan_inverse):
        assert [Q(x, rs.cartan_den) for x in scaled] == row
        assert all(type(x) is int for x in scaled)
    weights = fundamental_weights(rs)
    for p in range(rs.num_positive):
        pairings = [pairing(rs, w, rs.roots[p]) for w in weights]
        assert rs.komega[p] == pairings
        assert all(type(x) is int for x in rs.komega[p])


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_reflection_perms_match_fraction_reflections(family, rank):
    # the integer permutations against Fraction reflections of the coordinates;
    # a root and its negative give one reflection
    rs = root_system(family, rank)
    perms = rs.reflection_perms()
    for i, a in enumerate(rs.roots):
        assert perms[i] == tuple(rs.index[reflect(rs, a, b)] for b in rs.roots), a
        assert perms[i] == perms[rs.negative_index(i)], a
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
    alpha, beta = simple_roots(rs)
    expected = set()
    for v in [alpha, beta,
              tuple(a + b for a, b in zip(alpha, beta)),
              tuple(2 * a + b for a, b in zip(alpha, beta))]:
        expected.add(v)
        expected.add(neg(v))
    assert set(rs.roots) == expected


def test_pairing_symmetry_and_length_proportions():
    rs, _ = system("C", 2)
    alpha, beta = simple_roots(rs)
    assert pairing(rs, alpha, beta) == pairing(rs, beta, alpha)
    # short/long data matching the rank-2 example: k(a,b)/k(a,a) = -1
    assert pairing(rs, alpha, beta) / pairing(rs, alpha, alpha) == -1
    assert pairing(rs, beta, beta) / pairing(rs, alpha, alpha) == 2
    # long root of C2 has squared length 4 under short-length-2 normalization
    assert pairing(rs, beta, beta) == 4
    assert [rs.root_norms[i] for i in rs.simple_indices] == [2, 4]


def test_delta_has_unit_labels():
    for family, rank in ALL_TYPES:
        rs, _ = system(family, rank)
        delta = half_sum(rs)
        assert to_labels(rs, delta) == tuple(1 for _ in range(rank))
        assert from_labels(rs, (1,) * rank) == delta
        for a in simple_roots(rs):
            coroot = tuple(2 * x / pairing(rs, a, a) for x in a)
            assert pairing(rs, delta, coroot) == 1


def test_label_round_trip_random():
    rng = random.Random(7)
    for family, rank in ALL_TYPES:
        rs, _ = system(family, rank)
        for _ in range(100):
            labels = tuple(rng.randint(-6, 6) for _ in range(rank))
            assert to_labels(rs, from_labels(rs, labels)) == labels
        assert to_labels(rs, from_labels(rs, [0] * rank)) == tuple([0] * rank)


def test_a1_weight_scaling():
    # weight with label k equals (k/2) * alpha
    rs, _ = system("A", 1)
    (alpha,) = simple_roots(rs)
    for k in range(5):
        assert from_labels(rs, [k]) == tuple(Q(k, 2) * x for x in alpha)


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_integer_tables_match_pairing_construction(family, rank):
    # every table built from integer dot products equals its Fraction-pairing build
    rs = root_system(family, rank)
    want = pairing_tables(rs)
    got = {
        "root_norms": rs.root_norms,
        "cartan": rs.cartan,
        "root_labels": [rs.root_labels(i) for i in range(len(rs.roots))],
        "cartan_den": rs.cartan_den,
        "scaled_cartan_inverse": rs.scaled_cartan_inverse,
        "norm_den": rs.norm_den,
        "gram": rs.gram,
        "komega": rs.komega,
    }
    assert got == want


def leaves(x):
    """Every scalar inside nested dicts, lists and tuples."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(k)
            yield from leaves(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from leaves(v)
    else:
        yield x


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_tables_hold_only_ints(family, rank):
    rs = root_system(family, rank)
    for table in (rs.roots, rs.root_norms, rs.cartan, [rs.root_labels(i) for i in range(len(rs.roots))]):
        assert all(type(x) is int for x in leaves(table))
    # no attribute keeps a Fraction
    assert not any(isinstance(x, Q) for x in leaves(vars(rs)))
