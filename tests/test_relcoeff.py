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
from weylstrat.relcoeff import (
    coeff_table,
    identity_value,
    subset_sums,
    symmetrize,
)
from weylstrat.lattice import PQRatio, kernel_preset, pq_map
from weylstrat.repthy import dominant_labels_within
from weylstrat.rootsys import LieType, build_root_system
from weylstrat.subsys import SubsystemClass, enumerate_classes, RootSubsystem
from weylstrat.weyl import generate_group
from conftest import apply_labels, coset_movers, inverse, label_mat, spread_coeff_table, system


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
    delta_sq = rs.labels_norm_sq(rs.delta_labels)
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
             lambda: d_coeffs(rs, wg, CoeffTable("0", {(0, 0): 1}, 6, {(1, 1): 1}))]:
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


# -- coefficient tables ----------------------------------------------------------------


def test_su2_reduced_table():
    rs, wg, classes = classes_of("A", 1)
    t = coeff_table(rs, wg, classes["0"])
    assert t.entries == {(0,): 3, (2,): -1}
    assert t.stabilizer_order == 2


def test_su3_tables():
    rs, wg, classes = classes_of("A", 2)
    t0 = coeff_table(rs, wg, classes["0"])
    assert t0.entries == {(0, 0): 15, (0, 3): 3, (1, 1): -6, (2, 2): -1, (3, 0): 3}
    t1 = coeff_table(rs, wg, classes["A1"])
    assert t1.entries == {(0, 0): 20, (0, 3): 1, (1, 1): -5, (3, 0): 1}


def test_spin8_d3_spot_value():
    rs, wg, classes = classes_of("D", 4)
    t = coeff_table(rs, wg, classes["D3"])
    assert t.entries[(0, 0, 0, 0)] == 381


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
def test_unreduced_double_sum_oracle(family, rank):
    rs, wg, classes = classes_of(family, rank)
    for cls in classes.values():
        t = coeff_table(rs, wg, cls)
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
    ratios = None if kernel == "sc" else pq_map(rs, kernel_preset(rs, kernel))
    for label, cls in classes.items():
        got = coeff_table(rs, wg, cls, ratios)
        want = spread_coeff_table(rs, wg, cls, ratios)
        assert list(got.entries.items()) == list(want.entries.items()), label
        assert got.dominant_values == want.dominant_values, label
        assert got.stabilizer_order == want.stabilizer_order, label


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_orbit_memo_is_order_free(family, rank):
    # every class forward, reversed, and each on a fresh group gives the same tables
    rs = build_root_system(LieType(family, rank))
    classes = enumerate_classes(rs, generate_group(rs))

    def tables(order, fresh):
        wg = generate_group(rs)
        return {
            cls.label: coeff_table(rs, generate_group(rs) if fresh else wg, cls) for cls in order
        }

    forward = tables(classes, False)
    assert tables(reversed(classes), False) == forward
    assert tables(classes, True) == forward


def moved_class(rs, cls, w):
    """The same class with its base and representative moved by w."""
    moved = frozenset(w.perm[i] for i in cls.representative.root_indices)
    return SubsystemClass(
        cls.label,
        tuple(rs.roots[w.perm[rs.root_index(b)]] for b in cls.base),
        RootSubsystem(moved, cls.representative.closed, cls.label),
    )


def test_coeff_table_rejects_ratios_with_p_above_one():
    # p = 1 under every kernel containing the coroot lattice; 2/1 is refused, not rounded
    rs, wg, classes = classes_of("B", 2)
    ratios = [PQRatio(2, 1)] * len(rs.roots)
    with pytest.raises(ValueError, match="coroot lattice"):
        coeff_table(rs, wg, classes["A1"], ratios)


def test_representative_independence():
    rs, wg, classes = classes_of("C", 2)
    for label in ["A1", "C1", "D2"]:
        cls = classes[label]
        base = coeff_table(rs, wg, cls).entries
        for w in (wg.elements[3], wg.elements[-1]):
            assert coeff_table(rs, wg, moved_class(rs, cls, w)).entries == base


@functools.cache
def table_of(family, rank, label):
    rs, wg, classes = classes_of(family, rank)
    return coeff_table(rs, wg, classes[label])


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
    moved = coeff_table(rs, wg, moved_class(rs, classes[label], w))
    assert moved.entries == base.entries
    assert moved.stabilizer_order == base.stabilizer_order


def test_a_family_outer_symmetry():
    rs, wg, classes = classes_of("A", 3)
    for cls in classes.values():
        t = coeff_table(rs, wg, cls)
        assert t.entries == {tuple(reversed(k)): v for k, v in t.entries.items()}


def test_identity_vanishing():
    for family, rank in [("A", 2), ("C", 2)]:
        rs, wg, classes = classes_of(family, rank)
        full_size = len(rs.roots)
        for cls in classes.values():
            t = coeff_table(rs, wg, cls)
            value = identity_value(rs, wg, t)
            if len(cls.representative.root_indices) == full_size:
                assert value != 0
            else:
                assert value == 0, cls.label
