"""Weight systems, multiplicities, and tensor-product bookkeeping.

Dominant weight systems serve `tensor_coeff` (and the tests' oracles); D
tables never need them, since `costrat.d_coeffs` reads D off the symmetrized
subset-sum map. They are computed with Freudenthal's recursion, exactly
and entirely in integers: norms are the root system's scaled integer norms
(norm_den * ||l||^2), pairings with roots are integral, and root-lattice
membership of lambda - mu is divisibility of the scaled inverse Cartan
coordinates by cartan_den. The recursion always resolves to positive
integers. `shifted_fold`, imported from `weyl`, is the one shifted Weyl-orbit
sum (the Brauer-Klimyk rule): K blocks, K entries and tensor multiplicities
call it here, and `WeylGroup.orbit_fold` folds the orbit sums behind C tables
with it. The transcendental norm prefactors never enter here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .rootsys import Labels, RootSystem
from .weyl import WeylGroup, shifted_fold


@dataclass(frozen=True)
class WeightSystem:
    highest: Labels
    dominant_entries: Dict[Labels, int]


def dominant_labels_within(
    rs: RootSystem, max_norm_sq: Q, limit: Optional[int] = None
) -> List[Labels]:
    """Dominant label vectors l with ||l + delta||^2 <= max_norm_sq.

    Norms are compared as integers: an integer scaled norm (norm_den * ||.||^2)
    is at most norm_den * max_norm_sq iff it is at most its floor. Relies on the
    norm being strictly increasing in every label, so a failing prefix (padded
    with zeros) rules out all of its extensions. With a limit, the walk stops
    at the (limit + 1)-th vector found, so a longer result only says that there
    are more than limit; every accepted prefix has a vector below it, so the
    walk evaluates at most about 2 * rank * (limit + 1) norms.
    """
    n = rs.rank
    bound = math.floor(max_norm_sq * rs.norm_den)
    out: List[Labels] = []

    def within(prefix: List[int]) -> bool:
        padded = prefix + [0] * (n - len(prefix))
        return rs.scaled_norm([p + 1 for p in padded]) <= bound

    def rec(prefix: List[int]) -> bool:
        """Collect the extensions of prefix; False once the limit is passed."""
        if len(prefix) == n:
            out.append(tuple(prefix))
            return limit is None or len(out) <= limit
        v = 0
        while True:
            prefix.append(v)
            if not within(prefix):
                prefix.pop()
                return True
            going = rec(prefix)
            prefix.pop()
            if not going:
                return False
            v += 1

    if within([]):
        rec([])
    return sorted(out)


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


def weyl_dim(rs: RootSystem, labels: Sequence[int]) -> int:
    """Dimension of the irrep: product over positive roots of k(l+d,a)/k(d,a)."""
    lam = [int(l) for l in labels]
    if any(l < 0 for l in lam):
        raise ValueError(f"{labels} is not dominant")
    shifted = [l + 1 for l in lam]
    ones = [1] * rs.rank
    num = den = 1
    for p in range(rs.num_positive):
        num *= _pairing_labels_root(rs, shifted, p)
        den *= _pairing_labels_root(rs, ones, p)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"Weyl dimension formula gave {Q(num, den)} at {labels}")
    return dim


def orbit_points(wg: WeylGroup, dominant: Dict[Labels, int]) -> List[Tuple[Labels, int]]:
    """(nu, c) for every nu in the W-orbit of each dominant mu with non-zero value c."""
    return [(nu, c) for mu, c in dominant.items() if c for nu in wg.dominant_orbit(mu)]


def tensor_coeff(
    rs: RootSystem, wg: WeylGroup, lam_fac: Sequence[int], lam: Sequence[int], lam2: Sequence[int]
) -> int:
    """Multiplicity of the irrep lam2 inside (irrep lam_fac) tensor (irrep lam)."""
    ws = dominant_weight_system(rs, wg, lam_fac)
    total = shifted_fold(wg, orbit_points(wg, ws.dominant_entries), lam).get(tuple(lam2), 0)
    if total < 0:
        raise AssertionError("negative tensor multiplicity")
    return total
