import math
from fractions import Fraction as Q

import pytest

from weylstrat.costrat import (
    MAX_COLUMNS,
    HbarConfig,
    d_coeffs,
    hbar_ratio,
    is_stable,
    k_block,
    kblock_columns,
    shifted_norm_sq,
)
from weylstrat.lattice import kernel_preset, pq_map
from weylstrat.relcoeff import coeff_table
from weylstrat.repthy import dominant_labels_within, dominant_weight_system
from weylstrat.rootsys import RootSystem
from weylstrat.subsys import SubsystemClass, RootSubsystem, enumerate_classes
from weylstrat.weyl import shifted_fold
from conftest import RANK_SIX_TYPES, freudenthal_d_entries, k_block_oracle, system


def tables_of(family, rank):
    rs, wg = system(family, rank)
    classes = {c.label: c for c in enumerate_classes(rs, wg)}
    return rs, wg, classes


# every class of these types and kernels is checked against an oracle
KERNEL_CASES = (
    [("A", r, "sc") for r in range(1, 5)]
    + [(f, r, k) for f, r in [("B", 2), ("B", 3)] for k in ("sc", "so-odd")]
    + [("C", 2, "sc"), ("C", 3, "sc"), ("D", 4, "sc")]
)


def test_su2_d_table():
    rs, wg, classes = tables_of("A", 1)
    t = coeff_table(wg, classes["0"])
    d = d_coeffs(rs, t)
    assert d.entries == {(0,): 2, (2,): -1}


def test_su3_d_values():
    rs, wg, classes = tables_of("A", 2)
    d = d_coeffs(rs, coeff_table(wg, classes["0"]))
    assert d.entries == {(0, 0): 6, (1, 1): -2, (2, 2): -1, (0, 3): 2, (3, 0): 2}


def test_spin7_d3_d_values():
    rs, wg, classes = tables_of("B", 3)
    d = d_coeffs(rs, coeff_table(wg, classes["D3"]))
    assert d.entries[(0, 0, 0)] == 8
    assert d.entries[(0, 1, 0)] == 2
    assert d.entries[(1, 0, 0)] == -4


@pytest.mark.parametrize("family, rank, kernel", KERNEL_CASES)
def test_d_table_matches_freudenthal(family, rank, kernel):
    # the binned D table against the weight-system sum: values, zeros and key order
    rs, wg, classes = tables_of(family, rank)
    scales = None if kernel == "sc" else pq_map(rs, kernel_preset(rs, kernel))
    for label, cls in classes.items():
        t = coeff_table(wg, cls, scales)
        want = freudenthal_d_entries(rs, wg, t)
        assert list(d_coeffs(rs, t).entries.items()) == list(want.items()), label


def test_d_support_is_union_of_weight_systems():
    rs, wg, classes = tables_of("C", 2)
    t = coeff_table(wg, classes["A1"])
    d = d_coeffs(rs, t)
    support = set()
    for lam in t.entries:
        support |= set(dominant_weight_system(rs, wg, lam).dominant_entries)
    assert set(d.entries) == support


def test_d_representative_independence():
    rs, wg, classes = tables_of("C", 2)
    cls = classes["C1"]
    base = d_coeffs(rs, coeff_table(wg, cls)).entries
    w = wg.elements[-1]
    moved = frozenset(w.perm[i] for i in cls.representative.root_indices)
    alt = SubsystemClass(
        cls.label,
        cls.factors,
        tuple(w.perm[b] for b in cls.base),
        RootSubsystem(moved, cls.representative.closed),
    )
    assert d_coeffs(rs, coeff_table(wg, alt)).entries == base


def test_d_equals_c_when_weight_appears_only_in_own_system():
    # dominance-maximal table weights occur in no other listed weight system
    for family, rank, label in [("A", 2, "0"), ("C", 2, "A1"), ("A", 3, "A2")]:
        rs, wg, classes = tables_of(family, rank)
        t = coeff_table(wg, classes[label])
        d = d_coeffs(rs, t)
        for mu in t.entries:
            appears_elsewhere = any(
                mu in dominant_weight_system(rs, wg, lam).dominant_entries
                for lam in t.entries
                if lam != mu
            )
            if not appears_elsewhere:
                assert d.entries[mu] == t.entries[mu], (label, mu)


def test_is_stable():
    rs, wg, classes = tables_of("A", 1)
    d = d_coeffs(rs, coeff_table(wg, classes["0"]))
    assert sorted(nu for mu in d.entries for nu in wg.dominant_orbit(mu)) == [(-2,), (0,), (2,)]
    assert not is_stable(wg, d, (0,))  # the -2 shift leaves the chamber
    assert not is_stable(wg, d, (1,))
    assert is_stable(wg, d, (2,))
    assert is_stable(wg, d, (7,))


def test_k_block_su2():
    rs, wg, classes = tables_of("A", 1)
    d = d_coeffs(rs, coeff_table(wg, classes["0"]))
    delta_sq = rs.labels_norm_sq((1,))
    empty = k_block(wg, d, delta_sq / 2, kblock_columns(rs, delta_sq / 2))
    assert empty.entries == {}
    cutoff = rs.labels_norm_sq((9,))  # covers labels <= 8
    block = k_block(wg, d, cutoff, kblock_columns(rs, cutoff))
    row4 = {k: v for k, v in block.entries.items() if k[1] == (4,)}
    assert row4 == {((2,), (4,)): -1, ((4,), (4,)): 2, ((6,), (4,)): -1}
    # diagonal entry at a stable column picks out the zero-weight coefficient
    assert block.entries[((5,), (5,))] == d.entries[(0,)]
    # stable columns agree with D-table lookups on shifted orbits
    for lam2, lam in block.entries:
        if is_stable(wg, d, lam):
            diff = lam2[0] - lam[0]
            assert block.entries[(lam2, lam)] == d.entries[(abs(diff),)]
    assert (8,) in block.incomplete_columns


@pytest.mark.parametrize("family, rank, kernel", KERNEL_CASES)
def test_c_table_is_k_column_zero(family, rank, kernel):
    # the C table is the lambda = 0 column of the K block built from the D table
    rs, wg, classes = tables_of(family, rank)
    scales = None if kernel == "sc" else pq_map(rs, kernel_preset(rs, kernel))
    zero = (0,) * rank
    for label, cls in classes.items():
        t = coeff_table(wg, cls, scales)
        cut = max(rs.labels_norm_sq([l + 1 for l in lam]) for lam in t.entries)
        block = k_block(wg, d_coeffs(rs, t), cut, [zero])
        assert {row: v for (row, col), v in block.entries.items()} == t.entries, label


def shifted_fold_block(rs, wg, dtable, cutoff_norm_sq, columns):
    """K-block entries, in k_block's key order, and incomplete columns: one shifted_fold per column."""
    points = wg.orbit_points(dtable.entries)
    entries, incomplete = {}, set()
    for lam in columns:
        for row, val in shifted_fold(wg, points, lam).items():
            if rs.labels_norm_sq([x + 1 for x in row]) > cutoff_norm_sq:
                incomplete.add(lam)
            elif val:
                entries[(row, lam)] = val
    return entries, incomplete


def assert_block_matches_oracles(rs, wg, d, cutoff, columns, label):
    block = k_block(wg, d, cutoff, columns)
    entries, incomplete = shifted_fold_block(rs, wg, d, cutoff, columns)
    assert list(block.entries.items()) == list(entries.items()), label
    assert block.incomplete_columns == incomplete, label
    assert (block.entries, block.incomplete_columns) == k_block_oracle(rs, wg, d, cutoff, columns), label
    assert all(type(v) is int for v in block.entries.values()), label
    return block


# two cutoff radii per type, each admitting several columns where that stays cheap
ORACLE_CASES = [
    ("A", 2, "sc", "4", "6"),
    ("A", 3, "sc", "4", "6"),
    ("A", 4, "sc", "4", "9/2"),
    ("B", 2, "sc", "4", "6"),
    ("B", 2, "so-odd", "6", "8"),
    ("B", 3, "sc", "11/2", "7"),
    ("B", 3, "so-odd", "11/2", "7"),
    ("C", 2, "sc", "4", "6"),
    ("C", 3, "sc", "4", "6"),
    ("D", 4, "sc", "9/2", "5"),
]


@pytest.mark.parametrize("family, rank, kernel, radius, radius2", ORACLE_CASES)
def test_k_block_matches_per_contribution_oracle(family, rank, kernel, radius, radius2):
    # every class: the block from the packed lookup table against one fold per column
    rs, wg, classes = tables_of(family, rank)
    scales = None if kernel == "sc" else pq_map(rs, kernel_preset(rs, kernel))
    for label, cls in classes.items():
        d = d_coeffs(rs, coeff_table(wg, cls, scales))
        assert all(type(v) is int for v in d.entries.values()), label
        for r in (radius, radius2):
            cutoff = Q(r) ** 2
            assert_block_matches_oracles(rs, wg, d, cutoff, kblock_columns(rs, cutoff), (label, r))


@pytest.mark.parametrize("family, rank, label, kernel", [
    ("A", 3, "0", "sc"), ("B", 3, "A1", "so-odd"), ("C", 3, "C1+C2", "sc"),
])
def test_k_block_with_caller_columns(family, rank, label, kernel):
    # columns kblock_columns would not return set the radices of the packed keys too
    rs, wg, classes = tables_of(family, rank)
    scales = None if kernel == "sc" else pq_map(rs, kernel_preset(rs, kernel))
    d = d_coeffs(rs, coeff_table(wg, classes[label], scales))
    cutoff = Q(6) ** 2
    columns = kblock_columns(rs, cutoff)
    far = max(kblock_columns(rs, Q(9) ** 2), key=lambda lam: rs.labels_norm_sq(lam))
    assert far not in columns
    zero = (0,) * rank
    for cols in ([zero], columns[::-2], [far], [far] + columns[:2], columns):
        block = assert_block_matches_oracles(rs, wg, d, cutoff, cols, (label, cols))
        assert {lam for _, lam in block.entries} | block.incomplete_columns <= set(cols)
    assert far in k_block(wg, d, cutoff, [far]).incomplete_columns
    # no columns, given or from a cutoff below ||delta||^2 (kblock --cutoff 0)
    for cut, cols in ((cutoff, []), (Q(0), kblock_columns(rs, Q(0)))):
        block = k_block(wg, d, cut, cols)
        assert block.entries == {} and block.incomplete_columns == set()
    assert kblock_columns(rs, Q(0)) == []


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_limited_walk_stops_past_the_limit(family, rank):
    rs, _ = system(family, rank)
    for radius in [0, 1, Q(5, 2), 4, 7]:
        cutoff = Q(radius) ** 2
        full = dominant_labels_within(rs, cutoff)
        for limit in sorted({0, 1, 5, len(full) - 1, len(full), len(full) + 3} - {-1}):
            part = dominant_labels_within(rs, cutoff, limit=limit)
            if len(full) <= limit:
                assert part == full
            else:
                assert len(part) == limit + 1 and set(part) <= set(full)


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_limited_walk_ends_without_a_norm_bound(family, rank, monkeypatch):
    # a bound far past every norm the walk meets: only the limit stops it
    rs, _ = system(family, rank)
    calls = 0
    scaled_norm = RootSystem.scaled_norm

    def counted(self, labels):
        nonlocal calls
        calls += 1
        return scaled_norm(self, labels)

    monkeypatch.setattr(RootSystem, "scaled_norm", counted)
    assert len(dominant_labels_within(rs, 10**12, limit=100)) == 101
    assert calls <= 2 * rank * 102


def test_kblock_columns_budget():
    rs, _, _ = tables_of("A", 1)
    # at A1, ||l + delta||^2 = (l + 1)^2 / 2: the cutoff m^2 / 2 admits exactly m columns
    assert kblock_columns(rs, Q(MAX_COLUMNS**2, 2)) == [(l,) for l in range(MAX_COLUMNS)]
    with pytest.raises(ValueError, match="cutoff too large"):
        kblock_columns(rs, Q((MAX_COLUMNS + 1) ** 2, 2))


@pytest.mark.parametrize("family,rank", RANK_SIX_TYPES)
def test_cutoffs_near_delta_are_admitted(family, rank):
    rs, _ = system(family, rank)
    delta_sq = rs.labels_norm_sq((1,) * rank)
    assert kblock_columns(rs, delta_sq) == [(0,) * rank]
    fundamentals = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    wider = kblock_columns(rs, max(rs.labels_norm_sq([l + 1 for l in w]) for w in fundamentals))
    assert set(fundamentals) <= set(wider)


def test_hbar_ratio():
    rs, _, _ = tables_of("A", 1)
    cfg = HbarConfig(hbar=1.0)

    def ratio(num, den):
        return hbar_ratio(cfg, shifted_norm_sq(rs, num), shifted_norm_sq(rs, den))

    val, exp = ratio((2,), (2,))
    assert val == 1.0 and exp == 0
    v1, e1 = ratio((2,), (0,))
    v2, e2 = ratio((0,), (2,))
    assert e1 == -e2 == 2  # (9/2 - 1/2) / 2 under short-root-length-2 scaling
    assert v1 * v2 == pytest.approx(1.0)
    assert v1 == pytest.approx(math.exp(2.0))
    with pytest.raises(ValueError):
        HbarConfig(hbar=0.0)


STABLE_CASES = [("A", 1), ("A", 2), ("B", 2)]


@pytest.mark.parametrize("family,rank", STABLE_CASES)
def test_stable_rows_match_closed_form(family, rank):
    rs, wg, classes = tables_of(family, rank)
    for label, cls in classes.items():
        d = d_coeffs(rs, coeff_table(wg, cls))
        bound = rs.labels_norm_sq([9] * rank)
        stable = [
            lam
            for lam in dominant_labels_within(rs, bound)
            if is_stable(wg, d, lam)
        ][:5]
        assert stable, label
        # one block over the stable columns, its cutoff the widest window read below
        cutoff = max(rs.labels_norm_sq([l + 4 for l in lam]) for lam in stable)
        block = k_block(wg, d, cutoff, stable).entries
        for lam in stable:
            on_orbit = {}
            for mu, dval in d.entries.items():
                for mu2 in wg.orbit_labels(mu):
                    lam2 = tuple(a + b for a, b in zip(lam, mu2))
                    if all(x >= 0 for x in lam2):
                        on_orbit[lam2] = dval
            window = dominant_labels_within(rs, rs.labels_norm_sq([l + 4 for l in lam]))
            for lam2 in [*on_orbit, *window]:
                # a row past the cutoff is left out of the block and would read as 0
                assert shifted_norm_sq(rs, lam2) <= cutoff, (label, lam, lam2)
            for lam2, dval in on_orbit.items():
                assert block.get((lam2, lam), 0) == dval, (label, lam, lam2)
            for lam2 in window:
                if lam2 not in on_orbit:
                    assert block.get((lam2, lam), 0) == 0, (label, lam, lam2)
