"""Costratification data: D coefficient tables and normalized K-matrix blocks.

This module keeps what the `dcoeffs` and `kblock` commands print: D tables, K
blocks, and the hbar ratios that `kblock --hbar` multiplies in. `is_stable`
marks the columns where a K block has its closed form.

D tables are read off the symmetrized subset-sum map that gives the C table
(`CoeffTable.dominant_values`); no weight system is computed for them.
Freudenthal's recursion (`repthy.dominant_weight_system`) serves only
`repthy.tensor_coeff` and the test oracles, so this module loads `repthy`
only in `kblock_columns`, for its dominant-label walk.

Column lambda of a K block is `weyl.shifted_fold` at lambda of the W-orbit
points of the D table, each carrying its D value; the C table is column 0 of
that block. `k_block` takes every column from one `weyl.shifted_folds` call,
which reflects each distinct shifted point lambda + nu + delta once per block
and leaves out the rows past the cutoff; `shifted_fold` stays the definition
and is the tests' oracle for it.
All K entries are stored in normalized form (the ratio of character norms is
divided out), which keeps every table an exact integer and independent of
hbar; the transcendental factor is reinstated on demand by hbar_ratio, from
shifted norms a caller computes once per distinct lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Set, Tuple

from .relcoeff import CoeffTable
from .rootsys import Labels, RootSystem
from .weyl import WeylGroup, shifted_folds


@dataclass
class DCoeffTable:
    """Reduced D coefficients, supported on the dominant weights of the table irreps."""

    entries: Dict[Labels, int]


@dataclass
class KBlock:
    entries: Dict[Tuple[Labels, Labels], int]  # (row lambda', column lambda) -> value
    incomplete_columns: Set[Labels] = field(default_factory=set)


@dataclass(frozen=True)
class HbarConfig:
    hbar: float

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and positive")


def d_coeffs(rs: RootSystem, table: CoeffTable) -> DCoeffTable:
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
    return DCoeffTable({mu: values.get(mu, 0) for mu in sorted(below)})


def is_stable(wg: WeylGroup, dtable: DCoeffTable, lam: Sequence[int]) -> bool:
    """True iff lam plus every orbit point of the D-table support stays dominant.

    With this reading the closed-form row formula holds exactly: singular or
    non-dominant shifts are what break it, and those only involve non-dominant
    orbit points of the support.
    """
    return all(
        a + b >= 0 for mu in dtable.entries for nu in wg.dominant_orbit(mu) for a, b in zip(lam, nu)
    )


# kblock_columns refuses a cutoff that admits more columns than this
MAX_COLUMNS = 20_000


def kblock_columns(rs: RootSystem, cutoff_norm_sq: Q) -> List[Labels]:
    """The columns of a K block: every dominant l with ||l + delta||^2 <= cutoff.

    Raises ValueError past MAX_COLUMNS columns, having evaluated at most about
    2 * rank * MAX_COLUMNS norms, however large the cutoff.
    """
    from .repthy import dominant_labels_within

    columns = dominant_labels_within(rs, Q(cutoff_norm_sq), limit=MAX_COLUMNS)
    if len(columns) > MAX_COLUMNS:
        raise ValueError(f"norm cutoff too large: more than {MAX_COLUMNS} K-block columns")
    return columns


def k_block(
    wg: WeylGroup, dtable: DCoeffTable, cutoff_norm_sq: Q, columns: List[Labels]
) -> KBlock:
    """All normalized entries with both shifted norms within the cutoff.

    A column is flagged incomplete when its fold lands on a row past the
    cutoff, whether or not that row sums to zero. columns are
    kblock_columns(wg.rs, cutoff_norm_sq), walked once by the caller (before
    any table in `cli.cmd_kblock`); any other dominant columns are folded the
    same way.
    """
    # an integer scaled norm exceeds norm_den * cutoff iff it exceeds its floor
    bound = math.floor(Q(cutoff_norm_sq) * wg.rs.norm_den)
    entries: Dict[Tuple[Labels, Labels], int] = {}
    incomplete: Set[Labels] = set()
    for lam, fold, far in shifted_folds(wg, wg.orbit_points(dtable.entries), columns, bound):
        if far:
            incomplete.add(lam)
        for row, val in fold.items():
            if val:
                entries[(row, lam)] = val
    return KBlock(entries, incomplete)


def shifted_norm_sq(rs: RootSystem, lam: Sequence[int]) -> Q:
    """||lam + delta||^2, the norm that enters a character norm."""
    return rs.labels_norm_sq([l + 1 for l in lam])


def hbar_ratio(cfg: HbarConfig, norm_num: Q, norm_den: Q) -> Tuple[float, Q]:
    """exp(hbar * e) and the exact e = (norm_num - norm_den) / 2, from two shifted norms.

    Raises ValueError when the float overflows.
    """
    exponent = (norm_num - norm_den) / 2
    try:
        ratio = math.exp(cfg.hbar * float(exponent))
    except OverflowError:
        ratio = math.inf
    if ratio == math.inf:
        raise ValueError(f"--hbar {cfg.hbar} overflows the norm ratio exp(hbar * {exponent})")
    return ratio, exponent
