import itertools
import random

import pytest

from weylstrat.rootsys import vec_add, vec_neg
from weylstrat.subsys import (
    RootSubsystem,
    SubsystemClass,
    are_conjugate,
    build_poset,
    canonical_key,
    class_leq,
    enumerate_classes,
    is_closed,
    poset_to_dot,
    span_subsystem,
)
from conftest import system


def classes_by_label(family, rank):
    rs, wg = system(family, rank)
    return rs, wg, {c.label: c for c in enumerate_classes(rs, wg)}


def test_span_small():
    rs, wg = system("A", 1)
    sub = span_subsystem(rs, [rs.simple_roots[0]])
    assert sub.root_indices == frozenset(range(2))

    rs, wg = system("C", 2)
    alpha, beta = rs.simple_roots
    top = vec_add(vec_add(alpha, alpha), beta)  # 2a + b, the long highest root
    gamma_l = span_subsystem(rs, [beta, top])
    assert {rs.roots[i] for i in gamma_l.root_indices} == {
        beta, top, vec_neg(beta), vec_neg(top)
    }
    gamma_s = span_subsystem(rs, [alpha, vec_add(alpha, beta)])
    assert len(gamma_s.root_indices) == 4
    assert is_closed(rs, gamma_l)
    assert not is_closed(rs, gamma_s)
    with pytest.raises(ValueError):
        span_subsystem(rs, [vec_add(beta, beta)])


def test_empty_set_closed():
    rs, _ = system("A", 2)
    assert is_closed(rs, RootSubsystem(frozenset(), True))


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
        l for l, c in classes.items() if c.representative.closed and l != "B3"
    }
    assert closed_nonfull == {"0", "A1", "B1", "A1+B1", "A2", "B2", "D2", "D2+B1", "D3"}


def test_c3_nonclosed_classes():
    _, _, classes = classes_by_label("C", 3)
    nonclosed = {l for l, c in classes.items() if not c.representative.closed}
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
        assert c.representative.closed == expected, label


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("A", 4)])
def test_classes_pairwise_nonconjugate(family, rank):
    rs, wg, classes = classes_by_label(family, rank)
    labels = sorted(classes)
    for l1, l2 in itertools.combinations(labels, 2):
        sub1, sub2 = classes[l1].representative, classes[l2].representative
        assert not are_conjugate(wg, sub1, sub2), (l1, l2)
    # and canonical keys are distinct
    keys = {canonical_key(wg, c.representative.root_indices) for c in classes.values()}
    assert len(keys) == len(classes)


def test_representative_matches_its_base_span():
    for family, rank in [("B", 3), ("C", 3), ("D", 4)]:
        rs, wg, classes = classes_by_label(family, rank)
        for c in classes.values():
            sub = span_subsystem(rs, list(c.base))
            assert sub.root_indices == c.representative.root_indices
            assert len(c.base) == sum(
                int(f[1:]) for f in (c.label.split("+") if c.label != "0" else [])
            )


def test_conjugacy():
    rs, wg, classes = classes_by_label("C", 2)
    gl = classes["C1+C1"].representative
    gs = classes["D2"].representative
    assert are_conjugate(wg, gl, gl) is True
    assert are_conjugate(wg, gl, gs) is False

    rs2, wg2 = system("A", 2)
    i1, i2 = rs2.simple_indices
    s1 = span_subsystem(rs2, [rs2.simple_roots[0]])
    s2 = span_subsystem(rs2, [rs2.simple_roots[1]])
    assert are_conjugate(wg2, s1, s2) is True
    assert scan_conjugate(wg2, s1.root_indices, s2.root_indices)


def test_brute_force_class_enumeration_rank_two():
    # quotient all reflection-stable subsets of Sigma by W; must match the class list
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("C", 2)]:
        rs, wg, classes = classes_by_label(family, rank)
        n = len(rs.roots)
        perms = rs.reflection_perms()
        subsystems = []
        for mask in range(1 << n):
            s = frozenset(i for i in range(n) if mask >> i & 1)
            if all(perms[a][b] in s for a in s for b in s):
                subsystems.append(s)
        orbits = {}
        for s in subsystems:
            orbits.setdefault(canonical_key(wg, s), s)
        assert len(orbits) == len(classes)
        ours = {canonical_key(wg, c.representative.root_indices) for c in classes.values()}
        assert set(orbits) == ours
        closed_flags = sorted(is_closed(rs, RootSubsystem(s, True)) for s in orbits.values())
        assert closed_flags == sorted(c.representative.closed for c in classes.values())


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
        members = c.representative.root_indices
        moved = frozenset(w.perm[i] for i in members)
        subs += [RootSubsystem(members, c.representative.closed, c.label),
                 RootSubsystem(moved, c.representative.closed, c.label)]
    for sub in subs:
        assert canonical_key(wg, sub.root_indices) == scan_canonical_key(wg, sub.root_indices)
    for sub1, sub2 in itertools.product(subs, repeat=2):
        s1, s2 = sub1.root_indices, sub2.root_indices
        assert are_conjugate(wg, sub1, sub2) == scan_conjugate(wg, s1, s2) == (
            sub1.label == sub2.label
        )
        cls1 = SubsystemClass(sub1.label, (), sub1)
        cls2 = SubsystemClass(sub2.label, (), sub2)
        assert class_leq(wg, cls1, cls2) == scan_leq(wg, s1, s2), (sub1.label, sub2.label)


def test_class_leq_basics():
    rs, wg, classes = classes_by_label("A", 3)
    full = classes["A3"]
    empty = classes["0"]
    for c in classes.values():
        assert class_leq(wg, empty, c)
        assert class_leq(wg, c, full)
    assert class_leq(wg, classes["A1+A1"], full)
    assert class_leq(wg, classes["A2"], full)
    assert not class_leq(wg, classes["A1+A1"], classes["A2"])
    assert not class_leq(wg, classes["A2"], classes["A1+A1"])


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, 6)]
)
def test_build_poset_matches_class_leq(family, rank):
    # one orbit walk per class in build_poset gives the same order as class_leq per pair
    rs, wg, classes = classes_by_label(family, rank)
    poset = build_poset(wg, list(classes.values()))
    assert poset.leq == {
        (c1.label, c2.label): class_leq(wg, c1, c2)
        for c1, c2 in itertools.product(classes.values(), repeat=2)
    }


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
    poset = build_poset(wg, list(classes.values()))
    assert set(poset.hasse_edges) == EXPECTED_EDGES[(family, rank)]


@pytest.mark.parametrize("family,rank,full", [("B", 3, "B3"), ("C", 3, "C3"), ("D", 4, "D4")])
def test_poset_consistency(family, rank, full):
    rs, wg, classes = classes_by_label(family, rank)
    poset = build_poset(wg, list(classes.values()))
    labels = [c.label for c in poset.classes]
    for a in labels:
        assert poset.is_leq(a, a)
        assert poset.is_leq("0", a)
        assert poset.is_leq(a, full)
        for b in labels:
            for c in labels:
                if poset.is_leq(a, b) and poset.is_leq(b, c):
                    assert poset.is_leq(a, c)
    # length multisets forbid B1 <= D2 while A1 <= D2 holds
    if family == "B":
        assert poset.is_leq("A1", "D2")
        assert not poset.is_leq("B1", "D2")


def test_single_class_poset_has_no_edges():
    rs, wg, classes = classes_by_label("A", 1)
    poset = build_poset(wg, [classes["0"]])
    assert poset.hasse_edges == []


def test_dot_export():
    rs, wg, classes = classes_by_label("B", 2)
    dot = poset_to_dot(build_poset(wg, list(classes.values())))
    assert '"B1+B1" [shape=circle, style=solid' in dot  # non-closed -> hollow
    assert '"D2" [shape=circle, style=filled' in dot
    assert '"0" -> "A1";' in dot
    assert dot.startswith("digraph hasse {")
