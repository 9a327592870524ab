"""Signed subset sums and reduced character coefficients.

The generating map V counts subsets of the complement of a subsystem by the
parity-weighted number of ways their (ratio-scaled) root sums hit each weight.
Its sum over the cosets of the stabilizer is W-invariant, so it is found by
binning V over W-orbits and spreading each bin evenly over its orbit; a single
signed fold over shifted dominant representatives then yields the reduced
coefficients, all in integer label arithmetic. The same fold keeps the values
of the symmetrized map at dominant weights: they are the D table (see
`costrat.d_coeffs`), so no weight system is ever computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence

from .lattice import PQRatio
from .rootsys import Labels, RootSystem
from .subsys import SubsystemClass
from .weyl import WeylGroup
from . import repthy


@dataclass
class WeightedSum:
    """Finitely supported integer-valued map on weight labels."""

    entries: Dict[tuple, int] = field(default_factory=dict)

    def add(self, key: tuple, value: int):
        if not value:
            return
        new = self.entries.get(key, 0) + value
        if new:
            self.entries[key] = new
        else:
            del self.entries[key]

    def value(self, key: tuple) -> int:
        return self.entries.get(key, 0)

    def __len__(self):
        return len(self.entries)


@dataclass
class CoeffTable:
    """Reduced coefficients (the C-over-N column) for one subsystem class."""

    class_label: str
    entries: Dict[Labels, int]
    stabilizer_order: int
    # the non-zero values of the symmetrized map at dominant weights
    dominant_values: Dict[Labels, int]


def _scaled_root_labels(
    rs: RootSystem, index: int, ratios: Optional[Sequence[PQRatio]]
) -> Labels:
    """(q/p) times the root's labels; p = 1 once the kernel holds every simple coroot."""
    lab = rs.root_labels(index)
    if ratios is None:
        return lab
    r = ratios[index]
    if r.p != 1:
        raise ValueError(f"ratio {r.p}/{r.q}: the kernel does not contain the coroot lattice")
    return tuple(r.q * l for l in lab)


# subset_sums refuses a map whose support passes this many weights
MAX_SUPPORT = 2_000_000


def subset_sums(
    rs: RootSystem,
    complement: Sequence[int],
    ratios: Optional[Sequence[PQRatio]] = None,
) -> WeightedSum:
    """Fold the complement roots one at a time instead of walking 2^n subsets.

    Raises ValueError as soon as the support passes MAX_SUPPORT weights, so
    the map never holds more than about twice that many.
    """
    entries: Dict[tuple, int] = {tuple(0 for _ in range(rs.rank)): 1}
    for idx in complement:
        shift = _scaled_root_labels(rs, idx, ratios)
        new = dict(entries)
        for key, v in entries.items():
            moved = tuple(a + b for a, b in zip(key, shift))
            nv = new.get(moved, 0) - v
            if nv:
                new[moved] = nv
            else:
                new.pop(moved, None)
        entries = new
        if len(entries) > MAX_SUPPORT:
            raise ValueError(f"subset-sum support too large: more than {MAX_SUPPORT} weights")
    return WeightedSum(entries)


def symmetrize(wg: WeylGroup, n_cosets: int, v: WeightedSum) -> WeightedSum:
    """Sum of w(V) over one w per left coset of Stab(S), for a Stab(S)-invariant V.

    The sum is W-invariant: n_cosets * O(mu) / |W.mu| on each orbit W.mu, where
    O(mu) sums V over the orbit. With one coset, V itself is W-invariant.
    """
    if n_cosets == 1:
        return v
    bins: Dict[Labels, int] = {}
    for key, val in v.entries.items():
        mu = wg.dominant_data(key)[0]
        bins[mu] = bins.get(mu, 0) + val
    out = WeightedSum()
    for mu, total in bins.items():
        if total:
            orbit = wg.orbit_labels(mu)
            share, rem = divmod(n_cosets * total, len(orbit))
            assert rem == 0, (mu, n_cosets * total, len(orbit))
            out.entries.update(dict.fromkeys(orbit, share))
    return out


def _le_sqrt_plus(a_sq: Q, m_sq: Q, b_sq: Q) -> bool:
    """Exact test of sqrt(a_sq) <= sqrt(m_sq) + sqrt(b_sq)."""
    r = a_sq - m_sq - b_sq
    if r <= 0:
        return True
    return r * r <= 4 * m_sq * b_sq


def candidate_dominants(rs: RootSystem, max_support_norm_sq: Q) -> List[Labels]:
    """Dominant labels with ||l + delta|| <= M + ||delta||, M^2 the given bound."""
    delta_sq = rs.labels_norm_sq(rs.delta_labels)
    m_sq = Q(max_support_norm_sq)
    return repthy.dominant_labels_within(
        rs, lambda s: _le_sqrt_plus(s, m_sq, delta_sq)
    )


def coeff_table(
    rs: RootSystem,
    wg: WeylGroup,
    cls: SubsystemClass,
    ratios: Optional[Sequence[PQRatio]] = None,
) -> CoeffTable:
    """Reduced coefficients of the class relation in the normalized character basis.

    Symmetrizes the complement's subset-sum map over the cosets of the members'
    setwise stabilizer, which are as many as the images in their W-orbit (so
    the stabilizer order is |W| over the orbit size), by W-orbit bins. It then
    folds the result through the shifted dominant representative of each
    support point: a support point contributes to the unique dominant weight
    whose shifted orbit passes through it. On the way it keeps the map's
    values at its dominant support points. Ratios must have p = 1, as under
    every kernel that `lattice.check_kernel` accepts; otherwise ValueError.
    """
    members = cls.representative.root_indices
    complement = [i for i in range(len(rs.roots)) if i not in members]
    v = subset_sums(rs, complement, ratios)
    n_cosets = len(wg.coset_representatives(members))
    vt = symmetrize(wg, n_cosets, v)

    acc: Dict[Labels, int] = {}
    dominant: Dict[Labels, int] = {}
    for key, val in vt.entries.items():
        dom, sign, regular = wg.dominant_data(tuple(k + 1 for k in key))
        if not regular:
            continue
        if min(key) >= 0:
            dominant[key] = val
        lam = tuple(d - 1 for d in dom)
        acc[lam] = acc.get(lam, 0) + sign * val
    entries = {k: v for k, v in sorted(acc.items()) if v}
    return CoeffTable(cls.label, entries, len(wg) // n_cosets, dominant)


def identity_value(rs: RootSystem, wg: WeylGroup, table: CoeffTable) -> int:
    """Sum of coefficient times irrep dimension; zero for every non-full class."""
    return sum(c * repthy.weyl_dim(rs, lam) for lam, c in table.entries.items())
