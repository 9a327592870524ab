"""Signed subset sums and reduced character coefficients.

The generating map V counts subsets of the complement of a subsystem by the
parity-weighted number of ways their (q-scaled) root sums hit each weight;
it is folded one root pair at a time on weights packed into ints. Its sum over
the cosets of the stabilizer is W-invariant, so it is the orbit sums m_mu
weighted by n_cosets * O(mu) / |W.mu|, where O(mu) sums V over the orbit:
`symmetrize` walks each orbit of V once and keeps those weights at dominant
mu. For the class 0, V is (-1)^N times the square of the Weyl denominator
of the q-scaled roots, and `denominator_values` reads the same weights
off one pass over the orbit of their rho_q, building no V. The reduced
coefficients are these weights times the character expansions of the m_mu
(`WeylGroup.orbit_folds`, asked once per table and folded once per type and
mu, from each orbit or, one `shifted_folds` call per zero set, from one walk
of W.delta), all in integer label arithmetic. The weights are the D table (see
`costrat.d_coeffs`), so no weight system is ever computed here.

Two budgets bound the work: MAX_SUPPORT weights of a subset-sum map, and
MAX_ORBIT_POINTS orbit points behind a class-0 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Dict, Optional, Sequence

from .rootsys import Labels, RootSystem
from .subsys import SubsystemClass
from .weyl import WeylGroup


@dataclass
class CoeffTable:
    """Reduced coefficients (the C-over-N column) for one subsystem class."""

    entries: Dict[Labels, int]
    stabilizer_order: int
    # the non-zero values of the symmetrized map at dominant weights
    dominant_values: Dict[Labels, int]


# subset_sums refuses a map whose support passes this many weights
MAX_SUPPORT = 2_000_000


def subset_sums(
    rs: RootSystem,
    complement: Sequence[int],
    scales: Optional[Sequence[int]] = None,
) -> Dict[Labels, int]:
    """The product of (1 - e^(q_a a)) over the complement roots a, as {labels: coefficient}.

    Folds the roots one factor at a time instead of walking 2^n subsets, a
    root and its negative as one factor 2 - e^a - e^-a whenever their scaled
    weights are opposite (always so under `lattice.pq_map`). Weights are
    packed into ints during the fold: label i is offset by bound[i], the
    largest |label i| any subset sum can reach, and taken as a digit of radix
    2 * bound[i] + 1, so adding packed weights never carries. Raises
    ValueError as soon as the support passes MAX_SUPPORT weights, so the map
    never holds more than about twice that many. The q_a are scales, all 1 for None.
    """
    if scales is None:
        scales = [1] * len(rs.roots)
    shifts = {idx: tuple(scales[idx] * l for l in rs.root_labels(idx)) for idx in complement}
    bounds = [sum(abs(s[i]) for s in shifts.values()) for i in range(rs.rank)]
    places = [1]
    for b in bounds[:-1]:
        places.append(places[-1] * (2 * b + 1))
    packed = {idx: sum(map(mul, s, places)) for idx, s in shifts.items()}
    factors = []
    for idx, step in packed.items():
        neg = packed.get(rs.negative_index(idx))
        if neg != -step:
            factors.append(((0, 1), (step, -1)))
        elif idx < rs.num_positive:
            factors.append(((0, 2), (step, -1), (neg, -1)))

    entries = {sum(map(mul, bounds, places)): 1}
    for terms in factors:
        new: Dict[int, int] = {}
        get = new.get
        for key, c in entries.items():
            for step, m in terms:
                k = key + step
                nv = get(k, 0) + m * c
                if nv:
                    new[k] = nv
                else:
                    del new[k]
        entries = new
        if len(entries) > MAX_SUPPORT:
            raise ValueError(f"subset-sum support too large: more than {MAX_SUPPORT} weights")

    # unpacked one key at a time, so the two maps never both hold every weight
    radices = [(2 * b + 1, b) for b in bounds]
    out: Dict[Labels, int] = {}
    while entries:
        key, c = entries.popitem()
        labels = []
        for r, b in radices:
            key, digit = divmod(key, r)
            labels.append(digit - b)
        out[tuple(labels)] = c
    return out


def symmetrize(wg: WeylGroup, n_cosets: int, v: Dict[Labels, int]) -> Dict[Labels, int]:
    """The sum of w(V) over one w per left coset of Stab(S), at its dominant weights.

    For a Stab(S)-invariant V the sum is W-invariant: n_cosets * O(mu) / |W.mu|
    on each orbit W.mu, where O(mu) sums V over the orbit. Returns that value
    at each dominant mu where it is non-zero. Consumes v: each orbit's keys
    are popped as O(mu) is taken, so every orbit is walked once (and kept on
    wg) and the sum is never spread over the orbits. Raises AssertionError
    when an orbit's share is not an integer, which a Stab(S)-invariant V rules out.
    """
    out: Dict[Labels, int] = {}
    while v:
        key, total = v.popitem()
        mu = wg.dominant_data(key)[0]
        orbit = wg.dominant_orbit(mu)
        for nu in orbit:
            total += v.pop(nu, 0)
        if total:
            share, rem = divmod(n_cosets * total, len(orbit))
            if rem:
                raise AssertionError(
                    f"V is not Stab(S)-invariant: {n_cosets} * {total} over the "
                    f"{len(orbit)} weights of the orbit of {mu}"
                )
            out[mu] = share
    return out


# denominator_values refuses a class-0 table whose dominant weights pass this many orbit points
MAX_ORBIT_POINTS = 20_000_000


def denominator_values(wg: WeylGroup, scales: Optional[Sequence[int]]) -> Dict[Labels, int]:
    """symmetrize(wg, 1, subset_sums(rs, every root, scales)), from one pass over W.rho_q.

    A kernel between the coroots and the coweights is W-stable, so q is
    constant on W-orbits of roots and the q_a a form a root system with the
    same W and chambers, whose rho_q has the labels q_i (delta when every q is
    1). So V = prod over all roots a of (1 - e^(q_a a)) = (-1)^N Delta_q^2 with
    N = |Phi+| and Delta_q = sum over w of sign(w) e^(w rho_q), its orbit sums
    are O(mu) = (-1)^N |W| sum of sign(u) over the u with dom(rho_q + u rho_q)
    = mu, and the value at mu is O(mu) / |W.mu|. The orbit walk of rho_q carries
    sign(u) with each point u rho_q; V is never built. Raises ValueError as
    soon as the orbits of the dominant weights reached, cancelled or not, pass
    MAX_ORBIT_POINTS points, since each one left is folded point by point.
    """
    rho = tuple(scales[i] if scales else 1 for i in wg.rs.simple_indices)
    sums: Dict[Labels, int] = {}
    sizes: Dict[Labels, int] = {}  # |W.mu|, taken when mu is first reached
    points = 0
    for x, sign in wg.orbit_walk(rho):
        mu = wg.dominant_data(list(map(add, x, rho)))[0]
        if mu not in sums:
            sizes[mu] = wg.orbit_size(mu)
            points += sizes[mu]
            if points > MAX_ORBIT_POINTS:
                raise ValueError(
                    f"class-0 table too large: more than {MAX_ORBIT_POINTS} orbit points"
                )
            sums[mu] = 0
        sums[mu] += sign
    scale = (-1) ** wg.rs.num_positive * len(wg)
    out: Dict[Labels, int] = {}
    for mu, total in sums.items():
        if total:
            share, rem = divmod(scale * total, sizes[mu])
            if rem:
                raise AssertionError(f"orbit sum of V at {mu} is not a multiple of |W.mu|")
            out[mu] = share
    return out


def coeff_table(
    wg: WeylGroup, cls: SubsystemClass, scales: Optional[Sequence[int]] = None
) -> CoeffTable:
    """Reduced coefficients of the class relation in the normalized character basis.

    Symmetrizes the complement's subset-sum map over the cosets of the members'
    setwise stabilizer, which are as many as the images in their W-orbit (so
    the stabilizer order is |W| over the orbit size). The symmetrized map is
    sum over dominant mu of its value at mu times the orbit sum m_mu, so the
    coefficients are the sum of value times the character expansion of m_mu,
    from one `WeylGroup.orbit_folds` call that wg keeps for the next class. The table
    also keeps the map's values at dominant weights. The class 0 (no members)
    takes those values from `denominator_values` instead, under every kernel.
    scales are the q of every root (`lattice.pq_map`), all 1 for None.
    """
    members = cls.representative.root_indices
    if not members:
        n_cosets = 1
        dominant = denominator_values(wg, scales)
    else:
        complement = [i for i in range(len(wg.rs.roots)) if i not in members]
        n_cosets = len(wg.coset_representatives(members))
        dominant = symmetrize(wg, n_cosets, subset_sums(wg.rs, complement, scales))

    folds = wg.orbit_folds(dominant)
    acc: Dict[Labels, int] = {}
    for mu, share in dominant.items():
        for row, c in folds[mu].items():
            acc[row] = acc.get(row, 0) + share * c
    entries = {k: c for k, c in sorted(acc.items()) if c}
    return CoeffTable(entries, len(wg) // n_cosets, dominant)
