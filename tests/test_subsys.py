import itertools
import random
from fractions import Fraction as Q
from dataclasses import replace

import pytest

from weylstrat.lattice import TorusPoint, gamma_x, kernel_preset, pq_map
from weylstrat.subsys import (
    block_factors,
    build_poset,
    canonical_key,
    class_leq,
    closed,
    enumerate_classes,
    poset_to_dot,
    stabilizer_order,
    subsystem,
)
from conftest import (
    RANK_SIX_TYPES, SUPPORTED_TYPES, are_conjugate, orbit_walk_label, orbit_walk_leq,
    pair_scan_closed, reflection_perms, simple_roots, span_subsystem, system, word_element,
)


def classes_by_label(family, rank):
    rs, wg = system(family, rank)
    return rs, wg, {c.label: c for c in enumerate_classes(rs, wg)}


def test_span_small():
    rs, wg = system("A", 1)
    sub = span_subsystem(rs, [rs.simple_indices[0]])
    assert sub.root_indices == frozenset(range(2))

    rs, wg = system("C", 2)
    alpha, beta = simple_roots(rs)
    top = tuple(2 * a + b for a, b in zip(alpha, beta))  # 2a + b, the long highest root
    gamma_l = span_subsystem(rs, [rs.index[beta], rs.index[top]])
    assert {rs.roots[i] for i in gamma_l.root_indices} == {
        beta, top, tuple(-x for x in beta), tuple(-x for x in top)
    }
    gamma_s = span_subsystem(rs, [rs.index[alpha], rs.index[tuple(map(sum, zip(alpha, beta)))]])
    assert len(gamma_s.root_indices) == 4
    # the pair scan and the factor rule agree: C1+C1 is closed, D2 misses 2e_1 and 2e_2
    assert gamma_l.closed and closed("C", block_factors(rs, gamma_l.root_indices))
    assert not gamma_s.closed and not closed("C", block_factors(rs, gamma_s.root_indices))


def test_empty_set_closed():
    rs, _ = system("A", 2)
    assert pair_scan_closed(rs, frozenset())
    assert block_factors(rs, frozenset()) == [] and closed("A", [])


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 1, 2), ("A", 2, 3), ("A", 3, 5), ("A", 4, 7),
     ("B", 2, 6), ("B", 3, 13), ("C", 2, 6), ("C", 3, 13), ("D", 4, 10)],
)
def test_class_counts(family, rank, count):
    _, _, classes = classes_by_label(family, rank)
    assert len(classes) == count


def test_a3_class_labels():
    _, _, classes = classes_by_label("A", 3)
    assert set(classes) == {"0", "A1", "A1+A1", "A2", "A3"}


def test_b3_closed_classes_match_table_columns():
    _, _, classes = classes_by_label("B", 3)
    closed_nonfull = {
        l for l, c in classes.items() if c.closed and l != "B3"
    }
    assert closed_nonfull == {"0", "A1", "B1", "A1+B1", "A2", "B2", "D2", "D2+B1", "D3"}


def test_c3_nonclosed_classes():
    _, _, classes = classes_by_label("C", 3)
    nonclosed = {l for l, c in classes.items() if not c.closed}
    assert nonclosed == {"D2", "D2+C1", "D3"}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_closedness_criteria(family, rank):
    _, _, classes = classes_by_label(family, rank)
    for label, c in classes.items():
        factors = label.split("+") if label != "0" else []
        if family in ("A", "D"):
            expected = True
        elif family == "B":
            expected = sum(f.startswith("B") for f in factors) <= 1
        else:
            expected = not any(f.startswith("D") for f in factors)
        assert c.closed == expected, label


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("A", 4)])
def test_classes_pairwise_nonconjugate(family, rank):
    rs, wg, classes = classes_by_label(family, rank)
    labels = sorted(classes)
    for l1, l2 in itertools.combinations(labels, 2):
        sub1, sub2 = classes[l1], classes[l2]
        assert not are_conjugate(wg, sub1, sub2), (l1, l2)
    # and canonical keys are distinct
    keys = {canonical_key(wg, c.root_indices) for c in classes.values()}
    assert len(keys) == len(classes)


def test_representative_matches_its_base_span():
    # each representative is the span of its own roots, its closed flag is the pair
    # scan's, and the factors read off its coordinate blocks are those it was built from
    for family, rank in SUPPORTED_TYPES:
        rs, wg, classes = classes_by_label(family, rank)
        for c in classes.values():
            span = span_subsystem(rs, c.root_indices)
            assert span.root_indices == c.root_indices, c.label
            assert span.closed == c.closed, c.label
            assert sorted(block_factors(rs, c.root_indices)) == sorted(c.factors), c.label


def test_conjugacy():
    rs, wg, classes = classes_by_label("C", 2)
    gl = classes["C1+C1"]
    gs = classes["D2"]
    assert are_conjugate(wg, gl, gl) is True
    assert are_conjugate(wg, gl, gs) is False

    rs2, wg2 = system("A", 2)
    i1, i2 = rs2.simple_indices
    s1 = span_subsystem(rs2, [i1])
    s2 = span_subsystem(rs2, [i2])
    assert are_conjugate(wg2, s1, s2) is True
    assert scan_conjugate(wg2, s1.root_indices, s2.root_indices)


def test_brute_force_class_enumeration_rank_two():
    # quotient all reflection-stable subsets of Sigma by W; must match the class list
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("C", 2)]:
        rs, wg, classes = classes_by_label(family, rank)
        n = len(rs.roots)
        perms = reflection_perms(rs)
        subsystems = []
        for mask in range(1 << n):
            s = frozenset(i for i in range(n) if mask >> i & 1)
            if all(perms[a][b] in s for a in s for b in s):
                subsystems.append(s)
        orbits = {}
        for s in subsystems:
            orbits.setdefault(canonical_key(wg, s), s)
        assert len(orbits) == len(classes)
        ours = {canonical_key(wg, c.root_indices) for c in classes.values()}
        assert set(orbits) == ours
        closed_flags = sorted(pair_scan_closed(rs, s) for s in orbits.values())
        assert closed_flags == sorted(c.closed for c in classes.values())


# -- |W| scans as oracles for the orbit-walk versions ---------------------------


def scan_canonical_key(wg, indices):
    return min(tuple(sorted(w.perm[i] for i in indices)) for w in wg.elements)


def scan_conjugate(wg, s1, s2):
    return any(frozenset(w.perm[i] for i in s1) == s2 for w in wg.elements)


def scan_leq(wg, s1, s2):
    return any(all(w.perm[i] in s2 for i in s1) for w in wg.elements)


RANK_AT_MOST_4 = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                  ("C", 2), ("C", 3), ("C", 4), ("D", 4)]


@pytest.mark.parametrize("family,rank", RANK_AT_MOST_4)
def test_orbit_walk_matches_full_scans(family, rank):
    rs, wg, classes = classes_by_label(family, rank)
    # each class twice: its representative and a moved copy, so conjugate pairs differ
    w = random.Random(rank).choice(wg.elements)
    subs = []
    for c in classes.values():
        moved = frozenset(w.perm[i] for i in c.root_indices)
        subs += [(c.label, c), (c.label, replace(c, root_indices=moved))]
    for _, sub in subs:
        assert canonical_key(wg, sub.root_indices) == scan_canonical_key(wg, sub.root_indices)
    for (label1, sub1), (label2, sub2) in itertools.product(subs, repeat=2):
        s1, s2 = sub1.root_indices, sub2.root_indices
        assert are_conjugate(wg, sub1, sub2) == scan_conjugate(wg, s1, s2) == (label1 == label2)
        assert class_leq(sub1, sub2) == scan_leq(wg, s1, s2), (label1, label2)


def test_class_leq_basics():
    rs, wg, classes = classes_by_label("A", 3)
    full = classes["A3"]
    empty = classes["0"]
    for c in classes.values():
        assert class_leq(empty, c)
        assert class_leq(c, full)
    assert class_leq(classes["A1+A1"], full)
    assert class_leq(classes["A2"], full)
    assert not class_leq(classes["A1+A1"], classes["A2"])
    assert not class_leq(classes["A2"], classes["A1+A1"])


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES + [("A", 7), ("A", 8), ("D", 7)])
def test_poset_matches_the_orbit_walk(family, rank):
    # packing factor lists gives the order that walking each class's W-orbit gives
    rs, wg, classes = classes_by_label(family, rank)
    assert build_poset(list(classes.values())).leq == orbit_walk_leq(wg, list(classes.values()))


# -- naming a subsystem's class -------------------------------------------------


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_every_representative_names_its_class(family, rank):
    rs, wg, classes = classes_by_label(family, rank)
    for label, c in classes.items():
        assert subsystem(rs, c.root_indices) == c
        assert c.closed == pair_scan_closed(rs, c.root_indices)


@pytest.mark.parametrize("family,rank", [(f, r) for f, r in RANK_SIX_TYPES if r <= 5])
def test_class_label_is_weyl_invariant(family, rank):
    # random Weyl-word images of each representative name its class; at D4 this holds the
    # parity of the A3 and A1+A1 images too
    rng = random.Random(f"{family}{rank}")
    rs, wg, classes = classes_by_label(family, rank)
    for label, c in classes.items():
        for _ in range(3):
            w = word_element(wg, rng, 3 * rank)
            moved = [w.perm[i] for i in c.root_indices]
            sub = subsystem(rs, moved)
            assert (sub.label, sub.factors) == (label, c.factors)
            assert sub.closed == pair_scan_closed(rs, moved)


# the all-A classes at D_n whose W-class has an unlisted twin (ROADMAP item 2)
TWINNED = {
    4: {"A3", "A1+A1"},
    6: {"A5", "A1+A3", "A1+A1+A1"},
    8: {"A7", "A1+A5", "A3+A3", "A1+A1+A3", "A1+A1+A1+A1"},
}


@pytest.mark.parametrize("rank", sorted(TWINNED))
def test_d_twins_name_no_class(rank):
    # flipping the sign of the last coordinate of each root, the diagram automorphism
    # that swaps the last two nodes, maps each class to its twin, which no listed class
    # holds: it names None and its unflipped class its label. The orbit walk agrees at D4
    # and D6, where it also gives the twin as many cosets as its partner: the stabilizer
    # order is not halved there
    rs, wg, classes = classes_by_label("D", rank)
    twinned = {
        label for label, c in classes.items()
        if all(kind == "A" and m % 2 for kind, m in c.factors)
        and sum(m + 1 for _, m in c.factors) == rank
    }
    assert twinned == TWINNED[rank]
    for label in twinned:
        c = classes[label]
        primed = frozenset(rs.index[rs.roots[i][:-1] + (-rs.roots[i][-1],)] for i in c.root_indices)
        assert primed != c.root_indices
        twin = subsystem(rs, primed)
        assert twin.label is None and twin.factors == c.factors, label
        assert subsystem(rs, c.root_indices).label == label
        if rank <= 6:
            assert orbit_walk_label(wg, list(classes.values()), primed) is None, label
            n_cosets = len(wg) // stabilizer_order(rs, c.factors)
            assert len(wg.coset_representatives(primed)) == n_cosets, label
            assert len(wg.coset_representatives(c.root_indices)) == n_cosets, label


GRID_CASES = (
    [(f, r, "sc") for f, r in RANK_SIX_TYPES if r <= 5]
    + [("D", 6, "sc"), ("C", 2, "so-odd")]
    + [("B", r, "so-odd") for r in range(2, 6)]
)


# grid points whose Γ_x lies in a D_n twin: A3' at D4 and A5' at D6
TWIN_POINTS = {("D", 4): "1/4,0,0,1/4", ("D", 6): "1/2,0,1/2,0,1/2,0"}
# so-odd grid points whose Γ_x is not closed: D2 at C2, B1+B1 at B2, two B factors at B3-B5
NONCLOSED_POINTS = {
    ("C", 2): "1/4,0", ("B", 2): "0,1/4", ("B", 3): "1/2,0,0", ("B", 4): "1/2,0,0,0",
    ("B", 5): "1/2,0,0,0,0",
}


@pytest.mark.parametrize("family,rank,kernel", GRID_CASES)
def test_class_label_matches_the_orbit_walk_on_grid_points(family, rank, kernel):
    # Γ_x of random grid points, every third with a B part that keeps only the roots with
    # a zero label at one node, and of the twin and non-closed points: the name read off
    # the blocks is the orbit walk's, and None only at a twin; the closed flag read off the
    # factors is the pair scan's, and False only under so-odd
    rng = random.Random(f"{family}{rank}{kernel}")
    rs, wg, classes = classes_by_label(family, rank)
    scales = pq_map(rs, kernel_preset(rs, kernel))
    points = []
    for k in range(12):
        den = rng.choice([2, 3, 4, 6])
        b = [Q(0)] * rank
        if k % 3 == 0:
            b[rng.randrange(rank)] = Q(1, 5)
        points.append(([Q(rng.randrange(den), den) for _ in range(rank)], b))
    twin = TWIN_POINTS.get((family, rank))
    nonclosed = NONCLOSED_POINTS.get((family, rank)) if kernel == "so-odd" else None
    for point in (twin, nonclosed):
        if point:
            points.append(([Q(x) for x in point.split(",")], [Q(0)] * rank))
    names, flags = [], []
    for a, b in points:
        gamma = gamma_x(rs, scales, TorusPoint.make(a, b))
        sub = gamma.root_indices
        names.append(gamma.label)
        assert names[-1] == orbit_walk_label(wg, list(classes.values()), sub), (a, b)
        flags.append(gamma.closed)
        assert flags[-1] == pair_scan_closed(rs, sub), (a, b)
    assert (None in names) == (twin is not None)
    assert (False in flags) == (kernel == "so-odd")


EXPECTED_EDGES = {
    ("A", 1): {("0", "A1")},
    ("A", 2): {("0", "A1"), ("A1", "A2")},
    ("A", 3): {("0", "A1"), ("A1", "A1+A1"), ("A1", "A2"),
               ("A1+A1", "A3"), ("A2", "A3")},
    ("A", 4): {("0", "A1"), ("A1", "A1+A1"), ("A1", "A2"),
               ("A1+A1", "A1+A2"), ("A1+A1", "A3"), ("A2", "A1+A2"),
               ("A2", "A3"), ("A1+A2", "A4"), ("A3", "A4")},
    ("B", 2): {("0", "A1"), ("0", "B1"), ("A1", "D2"), ("B1", "B1+B1"),
               ("B1+B1", "B2"), ("D2", "B2")},
}


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_EDGES))
def test_hasse_matches_figures(family, rank):
    rs, wg, classes = classes_by_label(family, rank)
    poset = build_poset(list(classes.values()))
    assert set(poset.hasse_edges) == EXPECTED_EDGES[(family, rank)]


@pytest.mark.parametrize("family,rank,full", [("B", 3, "B3"), ("C", 3, "C3"), ("D", 4, "D4")])
def test_poset_consistency(family, rank, full):
    rs, wg, classes = classes_by_label(family, rank)
    poset = build_poset(list(classes.values()))
    labels = [c.label for c in poset.classes]
    for a in labels:
        assert poset.is_leq(a, a)
        assert poset.is_leq("0", a)
        assert poset.is_leq(a, full)
        for b in labels:
            for c in labels:
                if poset.is_leq(a, b) and poset.is_leq(b, c):
                    assert poset.is_leq(a, c)
    # the edges are the transitive reduction over every third class, not only those
    # listed between the ends
    pairs = [(a, b) for a in labels for b in labels if a != b and poset.is_leq(a, b)]
    assert set(poset.hasse_edges) == {
        (a, b)
        for a, b in pairs
        if not any(c not in (a, b) and poset.is_leq(a, c) and poset.is_leq(c, b) for c in labels)
    }
    # a D block takes A factors but no B factor
    if family == "B":
        assert poset.is_leq("A1", "D2")
        assert not poset.is_leq("B1", "D2")


def test_single_class_poset_has_no_edges():
    rs, wg, classes = classes_by_label("A", 1)
    poset = build_poset([classes["0"]])
    assert poset.hasse_edges == []


def test_dot_export():
    rs, wg, classes = classes_by_label("B", 2)
    dot = poset_to_dot(build_poset(list(classes.values())))
    assert '"B1+B1" [shape=circle, style=solid' in dot  # non-closed -> hollow
    assert '"D2" [shape=circle, style=filled' in dot
    assert '"0" -> "A1";' in dot
    assert dot.startswith("digraph hasse {")
