import functools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from weylstrat.relcoeff import coeff_table
from weylstrat.rootsys import LieType, build_root_system
from weylstrat.subsys import RootSubsystem, build_poset, enumerate_classes
from weylstrat.weyl import expected_group_order, generate_group
from conftest import (
    RANK_SIX_TYPES, apply_labels, are_conjugate, coset_movers, dominant_representative, from_labels,
    fundamental_weights, half_sum, inverse, label_mat, orbit, pairing, reflect, reflect_labels,
    reflection, simple_roots, system, to_labels, tuple_dominant_data, weight_system,
    word_element,
)


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("A", 4, 120),
     ("B", 2, 8), ("B", 3, 48), ("C", 2, 8), ("C", 3, 48), ("D", 4, 192)],
)
def test_group_orders(family, rank, order):
    rs, wg = system(family, rank)
    assert len(wg.elements) == expected_group_order(rs) == order


def test_sign_is_homomorphism():
    rng = random.Random(3)
    for family, rank in [("A", 2), ("B", 2), ("D", 4)]:
        rs, wg = system(family, rank)
        for g in wg.generators:
            assert g.sign == -1
        for i in range(len(rs.roots)):
            assert reflection(wg, i).sign == -1
        for _ in range(50):
            a = wg.elements[rng.randrange(len(wg))]
            b = wg.elements[rng.randrange(len(wg))]
            assert wg.compose(a, b).sign == a.sign * b.sign


def test_reflection_basics():
    rs, wg = system("C", 2)
    alpha, beta = simple_roots(rs)
    assert reflect(rs, alpha, alpha) == tuple(-x for x in alpha)
    # sigma_alpha(beta) = beta + 2 alpha = the long root at the top of the string
    expected = tuple(b + 2 * a for a, b in zip(alpha, beta))
    assert reflect(rs, alpha, beta) == expected
    assert rs.reflection_perms()[rs.index[alpha]][rs.index[beta]] == rs.index[expected]
    # fixes the orthogonal hyperplane
    orth = (Q(1), Q(1))
    assert pairing(rs, alpha, orth) == 0
    assert reflect(rs, alpha, orth) == orth


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2)])
def test_conjugation_relation(family, rank):
    # sigma_{w(a)} = w sigma_a w^-1 as root permutations, for all w and simple a
    rs, wg = system(family, rank)
    for w in wg.elements:
        winv = inverse(w)
        for i in rs.simple_indices:
            lhs = reflection(wg, w.perm[i])
            rhs = wg.compose(w, wg.compose(reflection(wg, i), winv))
            assert lhs == rhs


def test_orbits():
    rs, wg = system("A", 1)
    assert wg.orbit_labels((0,)) == [(0,)]
    assert wg.orbit_labels((2,)) == [(-2,), (2,)]
    rs2, wg2 = system("A", 2)
    assert len(orbit(wg2, half_sum(rs2))) == 6  # delta is regular


def test_orbit_sizes_divide_group_order():
    rng = random.Random(11)
    for family, rank in [("A", 2), ("B", 2), ("B", 3)]:
        rs, wg = system(family, rank)
        for _ in range(50):
            labels = tuple(rng.randint(-4, 4) for _ in range(rank))
            orb = wg.orbit_labels(labels)
            assert len(wg) % len(orb) == 0
            dominants = [l for l in orb if all(x >= 0 for x in l)]
            assert len(dominants) == 1


def test_dominant_representative():
    rs, wg = system("A", 1)
    d, w = dominant_representative(wg, from_labels(rs, [-2]))
    assert to_labels(rs, d) == (2,) and w.sign == -1
    d, w = dominant_representative(wg, from_labels(rs, [3]))
    assert to_labels(rs, d) == (3,) and w is wg.identity

    rs2, wg2 = system("A", 2)
    delta = half_sum(rs2)
    d, w = dominant_representative(wg2, tuple(-x for x in delta))
    assert d == delta
    assert apply_labels(rs2, w, (-1, -1)) == (1, 1)
    assert w.sign == -1  # longest element of A2 has odd length


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [(f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2)] for r in range(lo, 5)] + [("D", 4)]
    ),
    st.data(),
)
def test_orbit_fold_is_the_inverse_kostka_row(group, data):
    # m_mu = sum of fold[lam] * chi_lam, so at every dominant nu the Freudenthal
    # multiplicities m_lam(nu) sum to [nu = mu]
    rs, wg = system(*group)
    mu = tuple(data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
    total = {mu: 0}
    for lam, c in wg.orbit_folds([mu])[mu].items():
        for nu, m in weight_system(rs, wg, lam).dominant_entries.items():
            total[nu] = total.get(nu, 0) + c * m
    assert {nu: t for nu, t in total.items() if t} == {mu: 1}


def test_dominant_data_regularity():
    _, wg = system("B", 2)
    dom, sign, regular = wg.dominant_data((-1, 0))
    assert not regular
    dom, sign, regular = wg.dominant_data((-1, -2))
    assert regular and all(x > 0 for x in dom)


@st.composite
def walled_labels(draw):
    """(family, rank, point, on_wall): labels at a type of rank <= 6, some zeroed, moved by a word."""
    family, rank = draw(st.sampled_from(RANK_SIX_TYPES))
    labels = draw(st.lists(st.integers(-8, 8), min_size=rank, max_size=rank))
    walls = draw(st.sets(st.integers(0, rank - 1)))
    word = draw(st.lists(st.integers(0, rank - 1), max_size=8))
    _, wg = system(family, rank)
    point = tuple(0 if i in walls else l for i, l in enumerate(labels))
    for i in word:
        point = reflect_labels(wg, i, point)
    return family, rank, point, bool(walls)


@settings(max_examples=300, deadline=None)
@given(walled_labels())
def test_in_place_dominant_walk_matches_tuple_walk(case):
    # a zero label i is fixed by s_i, so a point moved off that wall stays singular
    family, rank, point, on_wall = case
    _, wg = system(family, rank)
    want = tuple_dominant_data(wg, point)
    assert wg.dominant_data(point) == want
    assert wg.dominant_data(list(point)) == want
    if on_wall:
        assert not want[2]


@settings(max_examples=300, deadline=None)
@given(walled_labels())
def test_regular_walk_stops_exactly_at_singular_points(case):
    # None iff dominant_data calls the point singular; otherwise its (dom, sign)
    family, rank, point, _ = case
    _, wg = system(family, rank)
    dom, sign, regular = wg.dominant_data(point)
    assert wg.regular_dominant(point) == ((dom, sign) if regular else None)
    assert wg.regular_dominant(list(point)) == wg.regular_dominant(point)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RANK_SIX_TYPES), st.data())
def test_orbit_walk_reaches_each_point_once_with_its_sign(group, data):
    # the tree walk against the breadth-first orbit of dense reflections; each
    # point's sign is that of the dominant walk, which follows its tree path back
    rs, wg = system(*group)
    mu = tuple(data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
    if wg.orbit_size(mu) > 1000:
        mu = tuple(min(m, 1) if i % 2 else 0 for i, m in enumerate(mu))
    walked = list(wg.orbit_walk(mu))
    points = [x for x, _ in walked]
    assert len(points) == len(set(points)) == wg.orbit_size(mu)
    assert set(points) == dense_orbit(wg, mu)
    regular = 0 not in mu
    for x, sign in walked:
        assert wg.dominant_data(x) == (mu, sign, regular)


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_orbit_size_needs_no_walk(family, rank):
    # |W| / |W_J| against the walked orbit, at every zero pattern of 0/1 labels
    _, wg = system(family, rank)
    for bits in range(1 << rank):
        mu = tuple(bits >> i & 1 for i in range(rank))
        if wg.orbit_size(mu) <= 5000:
            assert wg.orbit_size(mu) == len(wg.orbit_labels(mu)), mu


@functools.cache
def generator_mats(rs):
    """Dense label matrices of the simple reflections: l_j -> l_j - l_i * cartan[j][i]."""
    n = rs.rank
    return [
        tuple(
            tuple(int(r == c) - (rs.cartan[r][i] if c == i else 0) for c in range(n))
            for r in range(n)
        )
        for i in range(n)
    ]


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def dense_reflect(wg, i, labels):
    """s_i through its dense label matrix: the oracle for the sparse reflection."""
    return tuple(sum(a * b for a, b in zip(row, labels)) for row in generator_mats(wg.rs)[i])


def dense_dominant(wg, labels):
    """(dominant image, word length, regular) by dense simple reflections."""
    cur, length = tuple(labels), 0
    while True:
        i = next((j for j, l in enumerate(cur) if l < 0), None)
        if i is None:
            return cur, length, all(l != 0 for l in cur)
        cur, length = dense_reflect(wg, i, cur), length + 1


def dense_orbit(wg, labels):
    seen, frontier = {tuple(labels)}, [tuple(labels)]
    while frontier:
        nxt = []
        for lab in frontier:
            for i in range(len(lab)):
                img = dense_reflect(wg, i, lab)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_sparse_reflections_match_dense_matrices(family, rank):
    rs, wg = system(family, rank)
    rng = random.Random(rank * 31 + ord(family))
    points = [tuple(rng.randint(-5, 5) for _ in range(rank)) for _ in range(25)]
    for lab in points:
        for i in range(rank):
            assert reflect_labels(wg, i, lab) == dense_reflect(wg, i, lab)
        dom, length, regular = dense_dominant(wg, lab)
        assert wg.dominant_data(lab) == (dom, (-1) ** length, regular), lab
        d, w = dominant_representative(wg, from_labels(rs, lab))
        assert to_labels(rs, d) == dom
        assert apply_labels(rs, w, lab) == dom and w.sign == (-1) ** length
    # orbits of the fundamental weights and of one two-node weight stay small at rank 6
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    for lab in units + [tuple(a + b for a, b in zip(units[0], units[-1]))]:
        assert wg.orbit_labels(lab) == sorted(dense_orbit(wg, lab)), lab


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_composed_elements_match_dense_products(family, rank):
    # random generator words, composed without enumerating W (46080 elements at B6 and C6)
    rs, wg = system(family, rank)
    mats = generator_mats(rs)
    ident = tuple(tuple(int(r == c) for c in range(rank)) for r in range(rank))
    rng = random.Random(rank * 17 + ord(family))
    for _ in range(20):
        word = [rng.randrange(rank) for _ in range(rng.randrange(1, 4 * rank))]
        w, dense = wg.identity, ident
        for i in word:
            w = wg.compose(wg.generators[i], w)
            dense = mat_mul(mats[i], dense)
        assert label_mat(rs, w) == dense, word
        assert w.sign == (-1) ** len(word), word
        winv = inverse(w)
        assert wg.compose(w, winv) == wg.identity == wg.compose(winv, w)
        assert mat_mul(label_mat(rs, winv), dense) == ident
    # a reflection's label matrix, column i = s_a(omega_i), against Fraction coordinates
    weights = fundamental_weights(rs)
    for r in rng.sample(range(len(rs.roots)), min(5, len(rs.roots))):
        cols = [to_labels(rs, reflect(rs, rs.roots[r], x)) for x in weights]
        assert label_mat(rs, reflection(wg, r)) == tuple(zip(*cols)), r


def test_pipeline_never_enumerates_w():
    # a fresh D6 group (|W| = 23040): classes, poset, C tables and conjugacy use only
    # the simple reflections, so the lazy `elements` list is never built
    rs = build_root_system(LieType("D", 6))
    wg = generate_group(rs)
    assert len(wg) == 23040
    classes = {c.label: c for c in enumerate_classes(rs, wg)}
    poset = build_poset(list(classes.values()))
    assert poset.is_leq("D5", "D6") and not poset.is_leq("D4", "A5")
    assert coeff_table(wg, classes["D6"]).entries == {(0,) * 6: 1}
    assert coeff_table(wg, classes["D5"]).stabilizer_order == 2 * 1920
    s1 = classes["D5"].representative
    w = word_element(wg, random.Random(6), 15)
    s2 = frozenset(w.perm[i] for i in s1.root_indices)
    assert are_conjugate(wg, s1, RootSubsystem(s2, s1.closed)) is True
    same_size = classes["D3+D3"].representative, classes["D4"].representative
    assert are_conjugate(wg, *same_size) is False
    assert "elements" not in vars(wg)


def test_setwise_stabilizer():
    rs, wg = system("A", 2)
    assert len(wg.setwise_stabilizer([])) == len(wg)
    assert len(wg.setwise_stabilizer(range(len(rs.roots)))) == len(wg)
    i = rs.simple_indices[0]
    stab = wg.setwise_stabilizer({i, rs.negative_index(i)})
    assert len(stab) == 2


def test_coset_representatives():
    rs, wg = system("A", 2)
    everything = frozenset(range(len(rs.roots)))
    assert wg.coset_representatives(everything) == {everything}
    assert wg.coset_representatives([]) == {frozenset()}
    i = rs.simple_indices[0]
    assert len(wg.coset_representatives({i})) == len(wg)  # trivial stabilizer in A2
    pair = frozenset({i, rs.negative_index(i)})
    reps = wg.coset_representatives(pair)
    assert len(reps) == 3 and pair in reps
    movers = coset_movers(wg, pair)
    assert set(movers) == reps
    assert movers[pair] is wg.identity
    for img, w in movers.items():
        assert frozenset(w.perm[k] for k in pair) == img
    # pairwise distinct left cosets of the stabilizer
    stab = wg.setwise_stabilizer(pair)
    cosets = [frozenset(wg.compose(w, h).perm for h in stab) for w in movers.values()]
    assert len(set(cosets)) == 3


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_coset_representatives_against_full_scan(family):
    # every coset of every class representative at rank 5, against a scan of all of W
    rs, wg = system(family, 5)
    for cls in enumerate_classes(rs, wg):
        members = cls.representative.root_indices
        reps = wg.coset_representatives(members)
        assert len(reps) * len(wg.setwise_stabilizer(members)) == len(wg), cls.label
        images = {frozenset(w.perm[i] for i in members) for w in wg.elements}
        assert reps == images, cls.label
        movers = coset_movers(wg, members)
        assert set(movers) == reps, cls.label
        for img, w in movers.items():
            assert frozenset(w.perm[i] for i in members) == img, cls.label
