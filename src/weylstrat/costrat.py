"""Costratification data: D coefficient tables and normalized K-matrix blocks.

D tables are read off the symmetrized subset-sum map that gives the C table
(`CoeffTable.dominant_values`); no weight system is computed for them.
Freudenthal's recursion (`repthy.dominant_weight_system`) serves only
`repthy.tensor_coeff` and the test oracles.

Column lambda of a K block is `repthy.shifted_fold` at lambda of the W-orbit
points of the D table, each carrying its D value; the C table is column 0 of
that block. All K entries are stored in normalized form (the ratio of
character norms is divided out), which keeps every table an exact integer
and independent of hbar; the transcendental factor is reinstated on demand
by norm_ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
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
    cutoff = Q(cutoff_norm_sq)
    columns = repthy.dominant_labels_within(rs, lambda s: s <= cutoff, limit=MAX_COLUMNS)
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
    already holds them, are kblock_columns(rs, cutoff_norm_sq).
    """
    cutoff = Q(cutoff_norm_sq)
    if columns is None:
        columns = kblock_columns(rs, cutoff)
    # an integer scaled norm exceeds norm_den * cutoff iff it exceeds its floor
    scaled_cutoff = math.floor(cutoff * rs.norm_den)
    points = repthy.orbit_points(wg, dtable.entries)
    entries: Dict[Tuple[Labels, Labels], int] = {}
    incomplete: Set[Labels] = set()
    for lam in columns:
        for row, val in repthy.shifted_fold(wg, points, lam).items():
            if rs.scaled_norm([x + 1 for x in row]) > scaled_cutoff:
                incomplete.add(lam)
            elif val:
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
    underlying block may be missing far columns.
    """
    labels = {c.label for c in poset.classes}
    if base_label not in labels:
        raise ValueError(f"unknown class label {base_label!r}")
    excluded = [c for c in poset.classes if not poset.is_leq(base_label, c.label)]
    rows: List[VanishingRow] = []
    for cls in excluded:
        block = k_block(rs, wg, dtables[cls.label], cutoff_norm_sq)
        per_col: Dict[Labels, List[Tuple[Labels, int]]] = {}
        for (row, col), val in block.entries.items():
            per_col.setdefault(col, []).append((row, val))
        for lam in repthy.dominant_labels_within(rs, lambda s: s <= Q(cutoff_norm_sq)):
            coeffs = tuple(sorted(per_col.get(lam, [])))
            rows.append(VanishingRow(cls.label, lam, coeffs))
    return rows
