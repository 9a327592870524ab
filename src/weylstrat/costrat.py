"""Costratification data: D coefficient tables and normalized K-matrix blocks.

D tables are read off the symmetrized subset-sum map that gives the C table
(`CoeffTable.dominant_values`); no weight system is computed for them.
Freudenthal's recursion (`repthy.dominant_weight_system`) serves only
`repthy.tensor_coeff` and the test oracles.

Column lambda of a K block is `repthy.shifted_fold` at lambda of the W-orbit
points of the D table, each carrying its D value; the C table is column 0 of
that block. `k_block` sums the same folds, but the shifted points
lambda + nu + delta recur from column to column, so it reflects each distinct
one to the dominant chamber once per block, through a table keyed by packed
ints; `shifted_fold` stays the definition and is the tests' oracle for it.
All K entries are stored in normalized form (the ratio of character norms is
divided out), which keeps every table an exact integer and independent of
hbar; the transcendental factor is reinstated on demand by norm_ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import add, mul, sub
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .relcoeff import CoeffTable
from .rootsys import Labels, RootSystem
from .subsys import ClassPoset
from .weyl import WeylGroup
from . import repthy


@dataclass
class DCoeffTable:
    """Reduced D coefficients, supported on the dominant weights of the table irreps."""

    class_label: str
    entries: Dict[Labels, int]


@dataclass
class KBlock:
    class_label: str
    cutoff_norm_sq: Q
    entries: Dict[Tuple[Labels, Labels], int]  # (row lambda', column lambda) -> value
    incomplete_rows: Set[Labels] = field(default_factory=set)


@dataclass(frozen=True)
class HbarConfig:
    hbar: float

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and positive")


def d_coeffs(rs: RootSystem, wg: WeylGroup, table: CoeffTable) -> DCoeffTable:
    """D(mu) = sum of c_lambda * m_lambda(mu) over the table, at every dominant mu below it.

    The symmetrized map is the character sum of c_lambda * chi_lambda, so D(mu)
    is its value at mu, kept by coeff_table. The keys, zeros included, are the
    dominant weights of the table irreps: the dominant mu with lambda - mu in
    the positive root cone for some lambda of the table. Every such mu is
    reached from lambda by steps down positive roots through dominant weights
    (Stembridge, "The partial order of dominant weights", 1998), so a
    breadth-first walk finds them.
    """
    steps = [rs.root_labels(p) for p in range(rs.num_positive)]
    below = set(table.entries)
    frontier = list(below)
    while frontier:
        nxt = []
        for mu in frontier:
            for step in steps:
                nu = tuple(a - b for a, b in zip(mu, step))
                if min(nu) >= 0 and nu not in below:
                    below.add(nu)
                    nxt.append(nu)
        frontier = nxt
    values = table.dominant_values
    if not below.issuperset(values):
        raise AssertionError("symmetrized map is not the table's character sum")
    return DCoeffTable(table.class_label, {mu: values.get(mu, 0) for mu in sorted(below)})


def orbit_shifts(rs: RootSystem, wg: WeylGroup, dtable: DCoeffTable) -> List[Labels]:
    """Every weight in the Weyl orbits of the D-table support."""
    out: Set[Labels] = set()
    for mu in dtable.entries:
        out.update(wg.orbit_labels(mu))
    return sorted(out)


def is_stable(rs: RootSystem, wg: WeylGroup, dtable: DCoeffTable, lam: Sequence[int]) -> bool:
    """True iff lam plus every orbit point of the D-table support stays dominant.

    With this reading the closed-form row formula holds exactly: singular or
    non-dominant shifts are what break it, and those only involve non-dominant
    orbit points of the support.
    """
    lam = tuple(lam)
    for mu in orbit_shifts(rs, wg, dtable):
        if any(a + b < 0 for a, b in zip(lam, mu)):
            return False
    return True


def k_entry(
    rs: RootSystem,
    wg: WeylGroup,
    dtable: DCoeffTable,
    lam_row: Sequence[int],
    lam_col: Sequence[int],
) -> int:
    """Normalized K entry: row lam_row of the shifted fold of the D orbits at lam_col."""
    points = repthy.orbit_points(wg, dtable.entries)
    return repthy.shifted_fold(wg, points, lam_col).get(tuple(lam_row), 0)


# kblock_columns refuses a cutoff that admits more columns than this
MAX_COLUMNS = 20_000


def kblock_columns(rs: RootSystem, cutoff_norm_sq: Q) -> List[Labels]:
    """The columns of a K block: every dominant l with ||l + delta||^2 <= cutoff.

    Raises ValueError past MAX_COLUMNS columns, having evaluated at most about
    2 * rank * MAX_COLUMNS norms, however large the cutoff.
    """
    columns = repthy.dominant_labels_within(rs, Q(cutoff_norm_sq), limit=MAX_COLUMNS)
    if len(columns) > MAX_COLUMNS:
        raise ValueError(f"norm cutoff too large: more than {MAX_COLUMNS} K-block columns")
    return columns


def k_block(
    rs: RootSystem,
    wg: WeylGroup,
    dtable: DCoeffTable,
    cutoff_norm_sq: Q,
    columns: Optional[List[Labels]] = None,
) -> KBlock:
    """All normalized entries with both shifted norms within the cutoff.

    A column is flagged incomplete when its fold lands on a row past the
    cutoff, whether or not that row sums to zero. columns, when the caller
    already holds them, are kblock_columns(rs, cutoff_norm_sq); any other
    dominant columns are folded the same way.

    Column lam is repthy.shifted_fold at lam of the D orbit points, but the
    point lam + nu + delta recurs across columns, so each distinct point is
    reflected to the dominant chamber once per block. Points are packed into
    ints in mixed radix: digit i is (lam_i - min lam_i) + (nu_i - min nu_i)
    over the columns and the orbit points, so the key of lam + nu + delta is
    the key of lam plus the key of nu, and never carries. Each key maps to
    (row, sign, far), far when the row is past the cutoff, or to () when the
    point is singular; the table lives only for this call.
    """
    cutoff = Q(cutoff_norm_sq)
    if columns is None:
        columns = kblock_columns(rs, cutoff)
    # an integer scaled norm exceeds norm_den * cutoff iff it exceeds its floor
    scaled_cutoff = math.floor(cutoff * rs.norm_den)
    points = repthy.orbit_points(wg, dtable.entries)
    entries: Dict[Tuple[Labels, Labels], int] = {}
    incomplete: Set[Labels] = set()
    nus = [nu for nu, _ in points]
    col_lo = list(map(min, zip(*columns)))
    nu_lo = list(map(min, zip(*nus)))
    radices = [
        hi - lo + hi2 - lo2 + 1
        for hi, lo, hi2, lo2 in zip(map(max, zip(*columns)), col_lo, map(max, zip(*nus)), nu_lo)
    ]
    places = [1]
    for r in radices[:-1]:
        places.append(places[-1] * r)
    packed = [(sum(map(mul, map(sub, nu, nu_lo), places)), nu, c) for nu, c in points]

    lookup: Dict[int, tuple] = {}
    rows: Dict[Labels, Tuple[Labels, bool]] = {}  # dominant -> (row, far), one norm per row
    for lam in columns:
        base = sum(map(mul, map(sub, lam, col_lo), places))
        shift = [x + 1 for x in lam]
        fold: Dict[Labels, int] = {}
        far = False
        for key, nu, c in packed:
            key += base
            hit = lookup.get(key)
            if hit is None:
                dom, sign, regular = wg.dominant_data(list(map(add, shift, nu)))
                hit = ()
                if regular:
                    known = rows.get(dom)
                    if known is None:
                        known = rows[dom] = (
                            tuple(d - 1 for d in dom),
                            rs.scaled_norm(dom) > scaled_cutoff,
                        )
                    hit = (known[0], sign, known[1])
                lookup[key] = hit
            if hit:
                row, sign, past = hit
                if past:
                    far = True
                else:
                    fold[row] = fold.get(row, 0) + sign * c
        if far:
            incomplete.add(lam)
        for row, val in fold.items():
            if val:
                entries[(row, lam)] = val
    return KBlock(dtable.class_label, cutoff, entries, incomplete)


def norm_ratio(
    rs: RootSystem, cfg: HbarConfig, lam_num: Sequence[int], lam_den: Sequence[int]
) -> Tuple[float, Q]:
    """Ratio of character norms and the exact rational coefficient of hbar in its log."""
    a = rs.labels_norm_sq([l + 1 for l in lam_num])
    b = rs.labels_norm_sq([l + 1 for l in lam_den])
    exponent = (a - b) / 2
    try:
        ratio = math.exp(cfg.hbar * float(exponent))
    except OverflowError:
        ratio = math.inf
    if ratio == math.inf:
        raise ValueError(f"--hbar {cfg.hbar} overflows the norm ratio exp(hbar * {exponent})")
    return ratio, exponent


@dataclass(frozen=True)
class VanishingRow:
    class_label: str
    lam: Labels
    coefficients: Tuple[Tuple[Labels, int], ...]


def vanishing_system(
    rs: RootSystem,
    wg: WeylGroup,
    poset: ClassPoset,
    base_label: str,
    cutoff_norm_sq: Q,
    dtables: Dict[str, DCoeffTable],
) -> List[VanishingRow]:
    """Finite truncation of the linear conditions carving out the subspace of a class.

    One row per (class r with r not >= the base class, dominant lambda within
    the cutoff); each row lists the normalized K entries over the rows within
    the cutoff. This is a truncation only: rows flagged incomplete in the
    underlying block may be missing far columns. The columns are
    kblock_columns(rs, cutoff_norm_sq), walked once and shared by every
    block, so a cutoff past MAX_COLUMNS columns raises ValueError.
    """
    labels = {c.label for c in poset.classes}
    if base_label not in labels:
        raise ValueError(f"unknown class label {base_label!r}")
    excluded = [c for c in poset.classes if not poset.is_leq(base_label, c.label)]
    columns = kblock_columns(rs, cutoff_norm_sq)
    rows: List[VanishingRow] = []
    for cls in excluded:
        block = k_block(rs, wg, dtables[cls.label], cutoff_norm_sq, columns)
        per_col: Dict[Labels, List[Tuple[Labels, int]]] = {}
        for (row, col), val in block.entries.items():
            per_col.setdefault(col, []).append((row, val))
        for lam in columns:
            coeffs = tuple(sorted(per_col.get(lam, [])))
            rows.append(VanishingRow(cls.label, lam, coeffs))
    return rows
