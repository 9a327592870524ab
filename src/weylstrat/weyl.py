"""Weyl groups as permutations of the root index set.

A group keeps only its simple reflections; its order comes from the closed
formula per family. Elements are composed on demand as signed root
permutations. Nothing enumerates W except `elements`, built on first use for
`setwise_stabilizer` (23040 elements at D6, 46080 at B6 and C6).

W acts on Dynkin labels only through its simple reflections: s_i is applied
sparsely, negating l_i and changing l_j only at the Dynkin neighbours j of i.
Orbits and dominant representatives of label vectors are walks of those;
`dominant_data` reflects one list in place at its first negative label.
`shifted_fold` is the one shifted Weyl-orbit sum (the Brauer-Klimyk rule) behind
C tables, K entries and tensor multiplicities; `costrat.k_block` sums the same
folds over many columns with one `dominant_data` per distinct shifted point,
and is tested against it. A group keeps, per dominant weight mu it is asked
about, the orbit W.mu and the fold of the orbit sum m_mu (its character
expansion), so C tables of every class of a type share them.

Cosets of a setwise stabilizer are never built as sets of elements: the left
cosets w*Stab(S) correspond one-to-one with the images w(S) in the W-orbit of
the root index set S, and `WeylGroup.coset_representatives` walks that orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .rootsys import Labels, RootSystem, Vector


@dataclass(frozen=True)
class WeylElement:
    perm: Tuple[int, ...]
    sign: int


class WeylGroup:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        refl = rs.reflection_perms()
        # s_i on labels, sparsely: l_i -> -l_i, l_j -> l_j - cartan[j][i] * l_i at neighbours j
        self._neighbours: List[List[Tuple[int, int]]] = [
            [(j, rs.cartan[j][i]) for j in range(n) if j != i and rs.cartan[j][i]]
            for i in range(n)
        ]
        # after s_i, the first label that can be negative: a neighbour below i, else i + 1
        self._resume: List[int] = [
            min([j for j, _ in self._neighbours[i] if j < i], default=i + 1) for i in range(n)
        ]
        self.identity = WeylElement(tuple(range(len(rs.roots))), 1)
        self.generators: List[WeylElement] = [
            WeylElement(refl[i], -1) for i in rs.simple_indices
        ]
        # per dominant weight: its orbit, and the fold of its orbit sum
        self._orbits: Dict[Labels, List[Labels]] = {}
        self._folds: Dict[Labels, Dict[Labels, int]] = {}

    def __len__(self):
        return expected_group_order(self.rs)

    @cached_property
    def elements(self) -> List[WeylElement]:
        """All of W, breadth-first from the identity under left multiplication by s_i."""
        seen = {self.identity.perm: self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for g in self.generators:
                    w = self.compose(g, e)
                    if w.perm not in seen:
                        seen[w.perm] = w
                        nxt.append(w)
            frontier = nxt
        return list(seen.values())

    def compose(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """The element a*b acting as: apply b first, then a."""
        return WeylElement(tuple(map(a.perm.__getitem__, b.perm)), a.sign * b.sign)

    def inverse(self, a: WeylElement) -> WeylElement:
        return WeylElement(_invert_perm(a.perm), a.sign)

    def reflection(self, root_index: int) -> WeylElement:
        return WeylElement(self.rs.reflection_perms()[root_index], -1)

    # -- orbits and dominance ------------------------------------------------

    def _reflect(self, i: int, labels: Sequence[int]) -> Labels:
        """s_i applied to a label vector."""
        out = list(labels)
        li = out[i]
        out[i] = -li
        for j, c in self._neighbours[i]:
            out[j] -= c * li
        return tuple(out)

    def orbit_labels(self, labels: Sequence[int]) -> List[Labels]:
        """The W-orbit, sorted: a walk down from the dominant representative.

        Every orbit point other than the dominant one is s_i of a point with a
        positive label i, so only those reflections are taken.
        """
        start = self.dominant_data(labels)[0]
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for lab in frontier:
                for i, li in enumerate(lab):
                    if li > 0:
                        img = self._reflect(i, lab)
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
            frontier = nxt
        return sorted(seen)

    def orbit(self, x: Vector) -> List[Vector]:
        return [self.rs.from_labels(l) for l in self.orbit_labels(self.rs.to_labels(x))]

    def dominant_data(self, labels: Sequence[int]) -> Tuple[Labels, int, bool]:
        """Dominant representative, the sign of a mapping element, regularity.

        Regularity is with respect to the input point itself: True iff no
        Weyl element fixes it (no zero label on the dominant representative).
        The walk reflects at the first negative label, in place on one list.
        s_i leaves every label before i unchanged except at its neighbours, so
        the scan for the next negative label resumes at the first neighbour
        below i, or at i + 1.
        """
        cur = list(labels)
        n = len(cur)
        neighbours = self._neighbours
        resume = self._resume
        sign = 1
        i = 0
        while i < n:
            li = cur[i]
            if li < 0:
                cur[i] = -li
                for j, c in neighbours[i]:
                    cur[j] -= c * li
                sign = -sign
                i = resume[i]
            else:
                i += 1
        return tuple(cur), sign, 0 not in cur

    def dominant_orbit(self, mu: Labels) -> List[Labels]:
        """orbit_labels(mu), walked once per dominant mu and kept."""
        orbit = self._orbits.get(mu)
        if orbit is None:
            orbit = self._orbits[mu] = self.orbit_labels(mu)
        return orbit

    def orbit_fold(self, mu: Labels) -> Dict[Labels, int]:
        """The Racah-Speiser row of the orbit sum m_mu, folded once per dominant mu and kept.

        m_mu = sum over lambda of fold[lambda] * chi_lambda: the shifted fold at
        lambda = 0 of the orbit points, each with coefficient 1.
        """
        fold = self._folds.get(mu)
        if fold is None:
            points = [(nu, 1) for nu in self.dominant_orbit(mu)]
            fold = self._folds[mu] = shifted_fold(self, points, (0,) * len(mu))
        return fold

    def dominant_representative(self, x: Vector) -> Tuple[Vector, WeylElement]:
        """Pair (d, w) with w(x) = d dominant."""
        cur = self.rs.to_labels(x)
        w = self.identity
        while True:
            i = next((j for j, l in enumerate(cur) if l < 0), None)
            if i is None:
                return self.rs.from_labels(cur), w
            cur = self._reflect(i, cur)
            w = self.compose(self.generators[i], w)

    # -- subgroups and cosets ------------------------------------------------

    def setwise_stabilizer(self, root_indices: Iterable[int]) -> List[WeylElement]:
        """Every element mapping the index set onto itself, by a scan of all of W."""
        target = frozenset(root_indices)
        if not target:
            return list(self.elements)
        return [
            e for e in self.elements if frozenset(e.perm[i] for i in target) == target
        ]

    def coset_representatives(
        self, root_indices: Iterable[int]
    ) -> Dict[FrozenSet[int], WeylElement]:
        """The W-orbit of the index set S, each image w(S) mapped to one such w.

        The images are in bijection with the left cosets w*Stab(S), so there
        are |W| / |Stab(S)| of them. The walk is breadth-first under the simple
        reflections and keeps the first element to reach each image; its BFS
        depth is the least length in its coset, so every stored w is a
        minimal-length coset representative.
        """
        start = frozenset(root_indices)
        reps = {start: self.identity}
        frontier = [start]
        while frontier:
            nxt = []
            for img in frontier:
                for g in self.generators:
                    moved = frozenset(g.perm[i] for i in img)
                    if moved not in reps:
                        reps[moved] = self.compose(g, reps[img])
                        nxt.append(moved)
            frontier = nxt
        return reps


def shifted_fold(
    wg: WeylGroup, points: Iterable[Tuple[Labels, int]], lam: Sequence[int]
) -> Dict[Labels, int]:
    """Sum c * sign(w) on the dominant w(lam + nu + delta) - delta over the (nu, c) in points.

    Singular shifts drop out. Every row that a regular shift lands on is a
    key, with its sum even when that sum is zero.
    """
    out: Dict[Labels, int] = {}
    for nu, c in points:
        dom, sign, regular = wg.dominant_data(tuple(a + b + 1 for a, b in zip(lam, nu)))
        if regular:
            row = tuple(d - 1 for d in dom)
            out[row] = out.get(row, 0) + sign * c
    return out


def _invert_perm(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def generate_group(rs: RootSystem) -> WeylGroup:
    """The Weyl group of rs, held as its simple reflections."""
    return WeylGroup(rs)


def expected_group_order(rs: RootSystem) -> int:
    n = rs.rank
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return {
        "A": fact * (n + 1),
        "B": (1 << n) * fact,
        "C": (1 << n) * fact,
        "D": (1 << (n - 1)) * fact,
    }[rs.lie_type.family]
