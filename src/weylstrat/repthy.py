"""Dominant weight systems by Freudenthal's recursion.

No command computes a weight system: D tables are read off the symmetrized
subset-sum map (`CoeffTable.dominant_values`). The recursion is the tests'
oracle for those D tables, and the tests' tensor multiplicities, Weyl
dimensions and identity sum rule build on it. It is exact and entirely in
integers: norms are the root system's scaled integer norms
(norm_den * ||l||^2), pairings with roots are integral, and root-lattice
membership of lambda - mu is divisibility of the scaled inverse Cartan
coordinates by cartan_den. The recursion always resolves to positive
integers. Its candidates come from `costrat.dominant_labels_within`, the walk
that also lists the columns of a K block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .costrat import dominant_labels_within
from .rootsys import Labels, RootSystem
from .weyl import WeylGroup


@dataclass(frozen=True)
class WeightSystem:
    highest: Labels
    dominant_entries: Dict[Labels, int]


def _pairing_labels_root(rs: RootSystem, lab: Sequence[int], p: int) -> int:
    return sum(map(mul, lab, rs.komega[p]))


def dominant_weight_system(rs: RootSystem, wg: WeylGroup, highest: Sequence[int]) -> WeightSystem:
    """Dominant weights of the irrep with the given highest weight, with multiplicities."""
    lam = tuple(int(l) for l in highest)
    if any(l < 0 for l in lam):
        raise ValueError(f"highest weight {lam} is not dominant")

    den = rs.norm_den
    lam_shift_sq = rs.scaled_norm([l + 1 for l in lam])
    lam_sq = rs.scaled_norm(lam)
    candidates = dominant_labels_within(rs, Q(lam_shift_sq, den))
    members: List[Tuple[int, Labels]] = []
    for mu in candidates:
        diff = [a - b for a, b in zip(lam, mu)]
        coords = [sum(map(mul, row, diff)) for row in rs.scaled_cartan_inverse]
        if all(c >= 0 and c % rs.cartan_den == 0 for c in coords):
            members.append((sum(coords) // rs.cartan_den, mu))
    members.sort()

    mult: Dict[Labels, int] = {}
    for height, mu in members:
        if height == 0:
            mult[mu] = 1
            continue
        total = 0
        for p in range(rs.num_positive):
            rl = rs.root_labels(p)
            nu = mu
            while True:
                nu = tuple(m + r for m, r in zip(nu, rl))
                if rs.scaled_norm(nu) > lam_sq:
                    break
                dom, _sign, _reg = wg.dominant_data(nu)
                m_nu = mult.get(dom, 0)
                if m_nu:
                    total += m_nu * _pairing_labels_root(rs, nu, p)
        gap = lam_shift_sq - rs.scaled_norm([m + 1 for m in mu])
        m_mu, rem = divmod(2 * den * total, gap)
        if rem or m_mu <= 0:
            raise AssertionError(
                f"Freudenthal gave non-integer multiplicity {Q(2 * den * total, gap)} at {mu}"
            )
        mult[mu] = m_mu

    return WeightSystem(lam, mult)
