"""Signed subset sums and reduced character coefficients.

The generating map V counts subsets of the complement of a subsystem by the
parity-weighted number of ways their (ratio-scaled) root sums hit each weight.
Its sum over the cosets of the stabilizer is W-invariant, so it is found by
binning V over W-orbits and spreading each bin evenly over its orbit. The
reduced coefficients are `repthy.shifted_fold` of that map at lambda = 0, all
in integer label arithmetic. The map's values at dominant weights are the D
table (see `costrat.d_coeffs`), so no weight system is ever computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .lattice import PQRatio
from .rootsys import Labels, RootSystem
from .subsys import SubsystemClass
from .weyl import WeylGroup
from . import repthy


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
) -> Dict[Labels, int]:
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
    return entries


def symmetrize(wg: WeylGroup, n_cosets: int, v: Dict[Labels, int]) -> Dict[Labels, int]:
    """Sum of w(V) over one w per left coset of Stab(S), for a Stab(S)-invariant V.

    The sum is W-invariant: n_cosets * O(mu) / |W.mu| on each orbit W.mu, where
    O(mu) sums V over the orbit. With one coset, V itself is W-invariant.
    """
    if n_cosets == 1:
        return v
    bins: Dict[Labels, int] = {}
    for key, val in v.items():
        mu = wg.dominant_data(key)[0]
        bins[mu] = bins.get(mu, 0) + val
    out: Dict[Labels, int] = {}
    for mu, total in bins.items():
        if total:
            orbit = wg.orbit_labels(mu)
            share, rem = divmod(n_cosets * total, len(orbit))
            assert rem == 0, (mu, n_cosets * total, len(orbit))
            out.update(dict.fromkeys(orbit, share))
    return out


def coeff_table(
    rs: RootSystem,
    wg: WeylGroup,
    cls: SubsystemClass,
    ratios: Optional[Sequence[PQRatio]] = None,
) -> CoeffTable:
    """Reduced coefficients of the class relation in the normalized character basis.

    Symmetrizes the complement's subset-sum map over the cosets of the members'
    setwise stabilizer, which are as many as the images in their W-orbit (so
    the stabilizer order is |W| over the orbit size), by W-orbit bins. The
    coefficients are the shifted fold of the result at lambda = 0: a support
    point contributes to the unique dominant weight whose shifted orbit passes
    through it. The table also keeps the map's values at its dominant support
    points. Ratios must have p = 1, as under every kernel that
    `lattice.check_kernel` accepts; otherwise ValueError.
    """
    members = cls.representative.root_indices
    complement = [i for i in range(len(rs.roots)) if i not in members]
    v = subset_sums(rs, complement, ratios)
    n_cosets = len(wg.coset_representatives(members))
    vt = symmetrize(wg, n_cosets, v)

    folded = repthy.shifted_fold(wg, vt.items(), (0,) * rs.rank)
    entries = {k: v for k, v in sorted(folded.items()) if v}
    dominant = {k: v for k, v in vt.items() if min(k) >= 0}
    return CoeffTable(cls.label, entries, len(wg) // n_cosets, dominant)


def identity_value(rs: RootSystem, wg: WeylGroup, table: CoeffTable) -> int:
    """Sum of coefficient times irrep dimension; zero for every non-full class."""
    return sum(c * repthy.weyl_dim(rs, lam) for lam, c in table.entries.items())
