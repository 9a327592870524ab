"""Weyl groups as permutations of the root index set.

Elements carry the induced integer matrix on Dynkin labels, so the linear
action on arbitrary weights stays exact and cheap. The whole group is
enumerated and stored, so set-up time and memory grow with |W|: 23040
elements at D6, 46080 at B6 and C6.

Orbits and dominant representatives of label vectors never touch those
matrices: a simple reflection s_i is applied sparsely, negating l_i and
changing l_j only at the Dynkin neighbours j of i.

Cosets of a setwise stabilizer are never built as sets of elements: the left
cosets w*Stab(S) correspond one-to-one with the images w(S) in the W-orbit of
the root index set S, and `WeylGroup.coset_representatives` walks that orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .rootsys import Labels, RootSystem, Vector

IntMatrix = Tuple[Tuple[int, ...], ...]


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(m: IntMatrix, v: Sequence[int]) -> Labels:
    return tuple(sum(map(mul, row, v)) for row in m)


@dataclass(frozen=True)
class WeylElement:
    perm: Tuple[int, ...]
    sign: int
    label_mat: IntMatrix

    def apply_labels(self, labels: Sequence[int]) -> Labels:
        return _mat_vec(self.label_mat, labels)


class WeylGroup:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        nroots = len(rs.roots)
        refl = rs.reflection_perms()
        gen_perms = [refl[i] for i in rs.simple_indices]
        # label action of s_i:  l_j -> l_j - l_i * cartan[j][i]
        gen_mats: List[IntMatrix] = []
        for i in range(n):
            m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            for j in range(n):
                m[j][i] -= rs.cartan[j][i]
            gen_mats.append(tuple(tuple(row) for row in m))
        self.generator_mats = gen_mats
        # s_i on labels, sparsely: l_i -> -l_i, l_j -> l_j - cartan[j][i] * l_i at neighbours j
        self._neighbours: List[List[Tuple[int, int]]] = [
            [(j, rs.cartan[j][i]) for j in range(n) if j != i and rs.cartan[j][i]]
            for i in range(n)
        ]

        ident = tuple(range(nroots))
        ident_mat = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
        self.identity = WeylElement(ident, 1, ident_mat)
        lookup: Dict[Tuple[int, ...], WeylElement] = {ident: self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for gp, gm in zip(gen_perms, gen_mats):
                    perm = tuple(gp[p] for p in e.perm)
                    if perm not in lookup:
                        lookup[perm] = WeylElement(perm, -e.sign, _mat_mul(gm, e.label_mat))
                        nxt.append(lookup[perm])
            frontier = nxt
        self.elements: List[WeylElement] = list(lookup.values())
        self._lookup = lookup
        self.generators: List[WeylElement] = [lookup[p] for p in gen_perms]
        # highest-weight labels -> repthy.WeightSystem, filled by dominant_weight_system
        self.weight_systems: dict = {}

    def __len__(self):
        return len(self.elements)

    def compose(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """The element a*b acting as: apply b first, then a."""
        return self._lookup[tuple(a.perm[p] for p in b.perm)]

    def inverse(self, a: WeylElement) -> WeylElement:
        return self._lookup[_invert_perm(a.perm)]

    def reflection(self, root_index: int) -> WeylElement:
        return self._lookup[self.rs.reflection_perms()[root_index]]

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
        start = tuple(labels)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for lab in frontier:
                for i, li in enumerate(lab):
                    if li:  # s_i fixes lab when l_i = 0
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
        """
        cur = tuple(labels)
        sign = 1
        while True:
            for i, l in enumerate(cur):
                if l < 0:
                    break
            else:
                return cur, sign, 0 not in cur
            cur = self._reflect(i, cur)
            sign = -sign

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


def _invert_perm(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def generate_group(rs: RootSystem) -> WeylGroup:
    """Enumerate the full Weyl group by closure over the simple reflections."""
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
