import functools
import os
import subprocess
import sys
from fractions import Fraction as Q
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weylstrat
from weylstrat import weyl
from weylstrat.relcoeff import (
    coeff_table,
    denominator_values,
    subset_sums,
    symmetrize,
)
from weylstrat.lattice import ExpKernel, kernel_preset, pq_map
from weylstrat.repthy import dominant_labels_within, identity_value
from weylstrat.rootsys import LieType, build_root_system
from weylstrat.subsys import SubsystemClass, enumerate_classes, RootSubsystem
from weylstrat.weyl import WeylGroup, generate_group
from conftest import (
    RANK_SIX_TYPES, apply_labels, cartan_inverse, coset_movers, inverse, label_mat,
    spread_coeff_table, system, tree_walk_fold,
)


# -- oracles ---------------------------------------------------------------------


def exhaustive_subset_sums(rs, complement):
    """Walk all 2^n subsets; parity-weighted count per root-sum."""
    out = {}
    n = len(complement)
    for mask in range(1 << n):
        key = tuple(0 for _ in range(rs.rank))
        bits = 0
        for b in range(n):
            if mask >> b & 1:
                bits += 1
                key = tuple(a + c for a, c in zip(key, rs.root_labels(complement[b])))
        out[key] = out.get(key, 0) + (-1) ** bits
    return {k: v for k, v in out.items() if v}


def unreduced_coefficients(rs, wg, cls):
    """Double Weyl sum over the exhaustive subset map, no coset reduction."""
    members = cls.representative.root_indices
    complement = [i for i in range(len(rs.roots)) if i not in members]
    v = exhaustive_subset_sums(rs, complement)
    # the extra candidates sum to zero
    out = {}
    for lam in norm_ball(rs, v):
        shifted = tuple(l + 1 for l in lam)
        total = 0
        for w2 in wg.elements:
            point = tuple(x - 1 for x in apply_labels(rs, w2, shifted))
            for w1 in wg.elements:
                total += w2.sign * v.get(apply_labels(rs, w1, point), 0)
        if total:
            out[lam] = total
    return out


def norm_ball(rs, v):
    """The dominant l with ||l + delta||^2 <= 2 (M^2 + ||delta||^2), M the largest norm on V.

    ||l|| <= M for every l in the W-orbit of V's support, and then
    ||l + delta|| <= M + ||delta||.
    """
    max_norm = max((rs.labels_norm_sq(k) for k in v), default=Q(0))
    delta_sq = rs.labels_norm_sq((1,) * rs.rank)
    return dominant_labels_within(rs, 2 * (max_norm + delta_sq))


def dense_symmetrize(rs, reps, v):
    """Sum of w(V) over the coset representatives, each through its dense label matrix.

    An image M(key) = sum_i key_i * (column i of M) is packed as one integer,
    its coordinates the balanced base-`base` digits; `half` bounds every
    coordinate, so unpacking is exact.
    """
    mats = [label_mat(rs, w) for w in reps]
    half = max(abs(x) for m in mats for row in m for x in row) * max(
        sum(map(abs, key)) for key in v
    )
    base = 2 * half + 1
    packed = {}
    for m in mats:
        cols = [sum(m[j][i] * base**j for j in range(rs.rank)) for i in range(rs.rank)]
        for key, val in v.items():
            img = sum(map(mul, key, cols))
            packed[img] = packed.get(img, 0) + val
    out = {}
    for x, val in packed.items():
        if val:
            labels = []
            for _ in range(rs.rank):
                d = (x + half) % base - half
                labels.append(d)
                x = (x - d) // base
            out[tuple(labels)] = val
    return out


def classes_of(family, rank):
    rs, wg = system(family, rank)
    return rs, wg, {c.label: c for c in enumerate_classes(rs, wg)}


# -- subset sums -------------------------------------------------------------------


def test_su2_subset_sums():
    rs, wg, classes = classes_of("A", 1)
    v = subset_sums(rs, [0, 1])
    assert v == {(0,): 2, (2,): -1, (-2,): -1}
    # empty complement: only the empty subset
    v_full = subset_sums(rs, [])
    assert v_full == {(0,): 1}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_subset_sums_match_exhaustive_all_classes(family, rank):
    rs, wg, classes = classes_of(family, rank)
    for cls in classes.values():
        members = cls.representative.root_indices
        complement = [i for i in range(len(rs.roots)) if i not in members]
        got = subset_sums(rs, complement)
        assert got == exhaustive_subset_sums(rs, complement), cls.label


def test_signed_total_and_negation_symmetry():
    rs, wg, classes = classes_of("B", 2)
    for cls in classes.values():
        members = cls.representative.root_indices
        complement = [i for i in range(len(rs.roots)) if i not in members]
        v = subset_sums(rs, complement)
        assert sum(v.values()) == (1 if not complement else 0)
        for key, val in v.items():
            assert v.get(tuple(-k for k in key), 0) == val


# -- symmetrization ----------------------------------------------------------------


def test_symmetrize_full_stabilizer_is_identity():
    # with one coset V is W-invariant: its values at dominant weights, and v is consumed
    rs, wg, classes = classes_of("A", 1)
    v = subset_sums(rs, [0, 1])
    consumed = dict(v)
    vt = symmetrize(wg, len(wg.coset_representatives([])), consumed)
    assert vt == {k: c for k, c in v.items() if min(k) >= 0} == {(0,): 2, (2,): -1}
    assert consumed == {}


def test_symmetrize_point_mass_at_zero():
    rs, wg, classes = classes_of("A", 2)
    v = {(0, 0): 3}
    i = rs.simple_indices[0]
    pair = {i, rs.negative_index(i)}
    stab = wg.setwise_stabilizer(pair)
    vt = symmetrize(wg, len(wg.coset_representatives(pair)), v)
    assert vt == {(0, 0): 3 * (len(wg) // len(stab))}


def test_symmetrize_refuses_a_map_that_is_not_invariant_under_python_O():
    # an orbit share that is not an integer raises even with asserts compiled out,
    # and so does a dominant value outside the table's weights in d_coeffs
    code = """
from weylstrat.costrat import d_coeffs
from weylstrat.relcoeff import CoeffTable, symmetrize
from weylstrat.rootsys import LieType, build_root_system
from weylstrat.weyl import generate_group
rs = build_root_system(LieType("A", 2))
wg = generate_group(rs)
for call in [lambda: symmetrize(wg, 1, {(1, 0): 1}),
             lambda: d_coeffs(rs, CoeffTable({(0, 0): 1}, 6, {(1, 1): 1}))]:
    try:
        call()
    except AssertionError as exc:
        print("raised:", exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(weylstrat.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: V is not Stab(S)-invariant: 1 * 1 over the 3 weights of the orbit of (1, 0)",
        "raised: symmetrized map is not the table's character sum",
    ]


@pytest.mark.parametrize(
    "family,rank,only",
    [(f, r, None) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, 5)]
    + [("D", 5, "A1+A1")],
)
def test_symmetrize_matches_full_group_sum(family, rank, only):
    # the orbit bins against the dense per-coset sum, zeros included, at every
    # dominant weight of V's norm ball (D5 A1+A1: 60 cosets, 180k keys)
    rs, wg, classes = classes_of(family, rank)
    for cls in classes.values() if only is None else [classes[only]]:
        members = cls.representative.root_indices
        complement = [i for i in range(len(rs.roots)) if i not in members]
        v = subset_sums(rs, complement)
        movers = coset_movers(wg, members)
        vt = symmetrize(wg, len(wg.coset_representatives(members)), dict(v))
        ball = norm_ball(rs, v)
        assert set(vt) <= set(ball), cls.label
        got = {mu: vt.get(mu, 0) for mu in ball}
        inverses = [inverse(w) for w in movers.values()]
        dense = {mu: sum(v.get(apply_labels(rs, u, mu), 0) for u in inverses) for mu in ball}
        assert got == dense, cls.label
        if len(wg) > 48:
            continue
        # |W_Gamma| * reduced sum equals the unreduced sum over all of W
        stab = wg.setwise_stabilizer(members)
        full = {
            mu: sum(v.get(apply_labels(rs, inverse(w), mu), 0) for w in wg.elements)
            for mu in ball
        }
        assert {mu: len(stab) * val for mu, val in got.items()} == full, cls.label


@functools.cache
def symmetrized_of(family, rank, label):
    """The dense per-coset sum of V, and what symmetrize returns for it."""
    rs, wg, classes = classes_of(family, rank)
    members = classes[label].representative.root_indices
    v = subset_sums(rs, [i for i in range(len(rs.roots)) if i not in members])
    dense = dense_symmetrize(rs, coset_movers(wg, members).values(), v)
    return dense, symmetrize(wg, len(wg.coset_representatives(members)), dict(v))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)]),
    st.data(),
)
def test_symmetrized_map_is_w_invariant(group, data):
    # the dense sum at nu, on and around its support, is the returned value at dom(nu)
    rs, wg, classes = classes_of(*group)
    dense, vt = symmetrized_of(*group, data.draw(st.sampled_from(sorted(classes)), label="class"))
    point = data.draw(st.sampled_from(sorted(dense)), label="support point")
    shift = data.draw(st.tuples(*[st.integers(-2, 2)] * rs.rank), label="shift")
    nu = tuple(map(sum, zip(point, shift)))
    assert dense.get(nu, 0) == vt.get(wg.dominant_data(nu)[0], 0)


def kernel_scales(rs, kernel):
    """q of every root: None for sc, a preset, the coweight lattice, or rows split by ';'."""
    if kernel == "sc":
        return None
    if kernel == "so-odd":
        return pq_map(rs, kernel_preset(rs, kernel))
    if kernel == "coweight":
        rows = cartan_inverse(rs)
    else:
        rows = [[Q(t) for t in row.split()] for row in kernel.split(";")]
    return pq_map(rs, ExpKernel(tuple(map(tuple, rows))))


@pytest.mark.parametrize(
    "family,rank,kernel",
    [(f, r, "sc") for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, 5)]
    + [("A", 5, "sc")]
    + [("B", r, "so-odd") for r in range(2, 5)]
    + [("C", 2, "so-odd")]
    + [(f, r, "coweight") for f, lo in [("A", 1), ("B", 2), ("C", 2)] for r in range(lo, 5)]
    + [("D", 4, "coweight")]
    # SO(5) in the C2 numbering (the README's kernel file), and SU(4)/Z2
    + [("C", 2, "1/2 0;0 1"), ("A", 3, "1/2 1 1/2;0 1 0;0 0 1")],
)
def test_denominator_pass_matches_symmetrized_subset_sums(family, rank, kernel):
    # the class-0 values from one pass over W.rho_q against V built and symmetrized
    rs, wg = system(family, rank)
    scales = kernel_scales(rs, kernel)
    v = subset_sums(rs, range(len(rs.roots)), scales)
    assert denominator_values(wg, scales) == symmetrize(wg, 1, v)


# -- coefficient tables ----------------------------------------------------------------


def test_su2_reduced_table():
    rs, wg, classes = classes_of("A", 1)
    t = coeff_table(wg, classes["0"])
    assert t.entries == {(0,): 3, (2,): -1}
    assert t.stabilizer_order == 2


def test_su3_tables():
    rs, wg, classes = classes_of("A", 2)
    t0 = coeff_table(wg, classes["0"])
    assert t0.entries == {(0, 0): 15, (0, 3): 3, (1, 1): -6, (2, 2): -1, (3, 0): 3}
    t1 = coeff_table(wg, classes["A1"])
    assert t1.entries == {(0, 0): 20, (0, 3): 1, (1, 1): -5, (3, 0): 1}


def test_spin8_d3_spot_value():
    rs, wg, classes = classes_of("D", 4)
    t = coeff_table(wg, classes["D3"])
    assert t.entries[(0, 0, 0, 0)] == 381


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
def test_unreduced_double_sum_oracle(family, rank):
    rs, wg, classes = classes_of(family, rank)
    for cls in classes.values():
        t = coeff_table(wg, cls)
        expected = unreduced_coefficients(rs, wg, cls)
        assert {k: t.stabilizer_order * v for k, v in t.entries.items()} == expected, cls.label


ORACLE_CASES = (
    [(f, r, "sc") for f, lo in [("A", 1), ("B", 2), ("C", 2)] for r in range(lo, 5)]
    + [("D", 4, "sc")]
    + [("B", r, "so-odd") for r in range(2, 5)]
)


@pytest.mark.parametrize("family,rank,kernel", ORACLE_CASES)
def test_coeff_table_matches_spread_map_oracle(family, rank, kernel):
    # memoised orbit folds of the dominant bins against the fold of the spread map
    rs, wg, classes = classes_of(family, rank)
    scales = None if kernel == "sc" else pq_map(rs, kernel_preset(rs, kernel))
    for label, cls in classes.items():
        got = coeff_table(wg, cls, scales)
        want = spread_coeff_table(wg, cls, scales)
        assert list(got.entries.items()) == list(want.entries.items()), label
        assert got.dominant_values == want.dominant_values, label
        assert got.stabilizer_order == want.stabilizer_order, label


def dominant_values(wg, cls):
    """The symmetrized map of a class at its dominant weights, folding no orbit."""
    members = cls.representative.root_indices
    if not members:
        return denominator_values(wg, None)
    complement = [i for i in range(len(wg.rs.roots)) if i not in members]
    return symmetrize(wg, len(wg.coset_representatives(members)), subset_sums(wg.rs, complement))


@pytest.fixture
def delta_folds(monkeypatch):
    """The (points, lams) of each weyl.shifted_folds call, which orbit_folds makes only on the
    W.delta path (costrat holds its own binding)."""
    calls = []
    shifted_folds = weyl.shifted_folds

    def counted(group, points, lams, bound):
        calls.append((points, lams))
        return shifted_folds(group, points, lams, bound)

    monkeypatch.setattr(weyl, "shifted_folds", counted)
    return calls


@pytest.fixture
def walked(monkeypatch):
    """The start point of each WeylGroup.orbit_walk."""
    starts = []
    orbit_walk = WeylGroup.orbit_walk

    def counted(wg, mu):
        starts.append(tuple(mu))
        return orbit_walk(wg, mu)

    monkeypatch.setattr(WeylGroup, "orbit_walk", counted)
    return starts


@pytest.mark.parametrize(
    "family,rank,label", [(f, r, None) for f, r in RANK_SIX_TYPES if r <= 5] + [("A", 6, "0")]
)
def test_orbit_folds_match_the_tree_walk_oracle(family, rank, label, delta_folds):
    # each class table's dominant weights folded in class order on one fresh group, zero
    # keys included: class 0 comes first and, from rank 3 on, takes the W.delta path.
    # At rank 5 the classes other than 0 are those with at most 20 complement roots,
    # as in test_rank_five: a larger subset-sum map takes 2-10 s to build.
    rs, wg = system(family, rank)
    fresh = WeylGroup(rs)
    oracle = {}
    for cls in enumerate_classes(rs, wg):
        if label is not None and cls.label != label:
            continue
        if rank == 5 and len(cls) and len(rs.roots) - len(cls) > 20:
            continue
        mus = dominant_values(wg, cls)
        del delta_folds[:]
        folds = fresh.orbit_folds(mus)
        for mu in mus:
            if mu not in oracle:
                oracle[mu] = tree_walk_fold(fresh, mu)
            assert folds[mu] == oracle[mu], (cls.label, mu)
        if cls.label == "0" and rank >= 3:
            assert delta_folds
    # single small orbits on a fresh group: the origin and the first fundamental weight
    fresh = WeylGroup(rs)
    del delta_folds[:]
    for mu in [(0,) * rank, (1,) + (0,) * (rank - 1)]:
        assert fresh.orbit_folds([mu])[mu] == tree_walk_fold(fresh, mu)
    assert not delta_folds


def test_full_class_at_rank_eight_walks_no_w_delta(walked, delta_folds):
    # |W| = 10321920 at B8; the full class folds the one-point orbit of 0
    rs = build_root_system(LieType("B", 8))
    wg = WeylGroup(rs)
    full = max(enumerate_classes(rs, wg), key=len)
    assert coeff_table(wg, full).entries == {(0,) * 8: 1}
    assert (1,) * 8 not in walked and not delta_folds


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_orbit_memo_is_order_free(family, rank, delta_folds):
    # every class forward, reversed, and each on a fresh group gives the same tables,
    # although the fold path of each table depends on what its group has kept
    rs = build_root_system(LieType(family, rank))
    classes = enumerate_classes(rs, generate_group(rs))
    paths = set()

    def tables(order, fresh):
        shared = generate_group(rs)
        out = {}
        for cls in order:
            wg = generate_group(rs) if fresh else shared
            folded, calls = len(wg._folds), len(delta_folds)
            out[cls.label] = coeff_table(wg, cls)
            if len(wg._folds) > folded:
                paths.add("W.delta" if len(delta_folds) > calls else "orbits")
        return out

    forward = tables(classes, False)
    assert tables(reversed(classes), False) == forward
    assert tables(classes, True) == forward
    assert paths == {"W.delta", "orbits"}


@pytest.mark.parametrize("family,rank,label", [
    ("A", 3, None), ("B", 3, None), ("C", 3, None), ("D", 4, None), ("D", 5, "A1+A1"),
])
def test_w_delta_path_folds_once_per_zero_set(family, rank, label, walked, monkeypatch):
    # every class in order on one group (or one class on a fresh group): a table on the
    # W.delta path walks W.delta once and makes one shifted_folds call per zero set of the
    # weights it has not folded yet, with W.delta's points positive at that zero set as
    # points and those weights as columns, and no row of any fold passes the bound
    rs = build_root_system(LieType(family, rank))
    wg = generate_group(rs)
    delta = (1,) * rank
    w_delta = [(tuple(x - 1 for x in p), sign) for p, sign in wg.orbit_walk(delta)]
    calls = []
    shifted_folds = weyl.shifted_folds

    def counted(group, points, lams, bound):
        calls.append((points, lams))
        for lam, fold, far in shifted_folds(group, points, lams, bound):
            assert not far, lam
            yield lam, fold, far

    monkeypatch.setattr(weyl, "shifted_folds", counted)
    paths = []
    for cls in enumerate_classes(rs, wg):
        if label is not None and cls.label != label:
            continue
        folded, kept = set(wg._folds), delta in wg._orbits
        del calls[:], walked[:]
        table = coeff_table(wg, cls)
        zero_sets = {}
        for mu in table.dominant_values:
            if mu not in folded:
                zero_sets.setdefault(tuple(i for i, m in enumerate(mu) if not m), []).append(mu)
        # besides the W.delta path, class 0's denominator values walk delta's orbit, and so
        # does the first dominant_orbit(delta)
        others = (cls.label == "0") + (delta in wg._orbits and not kept)
        assert walked.count(delta) == bool(calls) + others, cls.label
        if calls:
            paths.append(cls.label)
            assert len(calls) == len(zero_sets), cls.label
            for points, lams in calls:
                zeros = tuple(i for i, m in enumerate(lams[0]) if not m)
                want = [pt for pt in w_delta if all(pt[0][i] >= 0 for i in zeros)]
                assert points == want, cls.label
                assert lams == zero_sets[zeros], cls.label
    assert (paths[0] == "0") if label is None else (paths == [label])


def moved_class(rs, cls, w):
    """The same class with its base and representative moved by w."""
    moved = frozenset(w.perm[i] for i in cls.representative.root_indices)
    return SubsystemClass(
        cls.label,
        cls.factors,
        tuple(w.perm[b] for b in cls.base),
        RootSubsystem(moved, cls.representative.closed),
    )


def test_representative_independence():
    rs, wg, classes = classes_of("C", 2)
    for label in ["A1", "C1", "D2"]:
        cls = classes[label]
        base = coeff_table(wg, cls).entries
        for w in (wg.elements[3], wg.elements[-1]):
            assert coeff_table(wg, moved_class(rs, cls, w)).entries == base


@functools.cache
def table_of(family, rank, label):
    rs, wg, classes = classes_of(family, rank)
    return coeff_table(wg, classes[label])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3)]),
    st.data(),
)
def test_representative_independence_property(group, data):
    rs, wg, classes = classes_of(*group)
    label = data.draw(st.sampled_from(sorted(classes)), label="class")
    w = wg.elements[data.draw(st.integers(0, len(wg) - 1), label="w")]
    base = table_of(*group, label)
    moved_cls = moved_class(rs, classes[label], w)
    moved = coeff_table(wg, moved_cls)
    assert moved.entries == base.entries
    walk = wg.coset_representatives(moved_cls.representative.root_indices)
    assert moved.stabilizer_order == len(wg) // len(walk)


def test_a_family_outer_symmetry():
    rs, wg, classes = classes_of("A", 3)
    for cls in classes.values():
        t = coeff_table(wg, cls)
        assert t.entries == {tuple(reversed(k)): v for k, v in t.entries.items()}


def test_identity_vanishing():
    for family, rank in [("A", 2), ("C", 2)]:
        rs, wg, classes = classes_of(family, rank)
        full_size = len(rs.roots)
        for cls in classes.values():
            t = coeff_table(wg, cls)
            value = identity_value(rs, t)
            if len(cls.representative.root_indices) == full_size:
                assert value != 0
            else:
                assert value == 0, cls.label
