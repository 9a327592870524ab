"""Classical root systems in exact rational coordinates.

Families A, B, C, D are realized in orthonormal coordinates (A_n inside the
trace-zero hyperplane of an (n+1)-dimensional space, B/C/D in n dimensions).
The bilinear form is scaled so that short roots have squared length 2; this
normalization cancels in every reduced coefficient downstream.

Every root has integer coordinates, so the tables are built from integer dot
products and exact floor division: root norms, the Cartan matrix, root
labels, the pairings `komega` of fundamental weights with positive roots
(through simple-root coordinates) and `gram`, norm_den * k(omega_i, omega_j),
the form in label space. So `scaled_norm` never leaves int, and
`labels_norm_sq` turns it into a `Fraction` only at the API edge. Only the
n x n inverse Cartan matrix, the fundamental weights and the root vectors
handed out are `Fraction`s; `cartan_den` times the inverse is an integer
matrix too, and the reflection permutations are computed on the integer
root coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

Vector = Tuple[Q, ...]
Labels = Tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
# the largest rank any test or example uses; `hasse` at B8 already takes about a minute
MAX_RANK = 8


@dataclass(frozen=True)
class LieType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _MIN_RANK:
            raise ValueError(f"unknown family {self.family!r}; expected one of A, B, C, D")
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"{self.family}_{self.rank} out of range; need rank >= {_MIN_RANK[self.family]}"
            )
        if self.rank > MAX_RANK:
            raise ValueError(f"{self.family}_{self.rank} out of range; need rank <= {MAX_RANK}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vec_neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def vec_scale(c, x: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in x)


def _unit(dim: int, i: int) -> Tuple[int, ...]:
    return tuple(int(k == i) for k in range(dim))


def _simple_roots(t: LieType) -> List[Tuple[int, ...]]:
    n = t.rank
    if t.family == "A":
        e = lambda i: _unit(n + 1, i)
        return [vec_sub(e(i), e(i + 1)) for i in range(n)]
    e = lambda i: _unit(n, i)
    simple = [vec_sub(e(i), e(i + 1)) for i in range(n - 1)]
    if t.family == "B":
        simple.append(e(n - 1))
    elif t.family == "C":
        simple.append(vec_add(e(n - 1), e(n - 1)))
    else:  # D
        simple.append(vec_add(e(n - 2), e(n - 1)))
    return simple


def _all_positive_roots(t: LieType) -> List[Tuple[int, ...]]:
    n = t.rank
    if t.family == "A":
        e = lambda i: _unit(n + 1, i)
        return [vec_sub(e(i), e(j)) for i, j in itertools.combinations(range(n + 1), 2)]
    e = lambda i: _unit(n, i)
    pos = []
    for i, j in itertools.combinations(range(n), 2):
        pos.append(vec_sub(e(i), e(j)))
        pos.append(vec_add(e(i), e(j)))
    if t.family == "B":
        pos.extend(e(i) for i in range(n))
    elif t.family == "C":
        pos.extend(vec_add(e(i), e(i)) for i in range(n))
    return pos


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


class RootSystem:
    """Root system with exact form and Dynkin-label conversions.

    Roots are indexed positives-first in lexicographic coordinate order;
    root index i + num_positive is the negative of root index i.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        self.rank = n
        # k = form_scale * (dot product); chosen so short roots have k(a,a) = 2
        scale = 2 if lie_type.family == "B" else 1
        self.form_scale = Q(scale)

        # every root has integer coordinates: the tables come from integer dot products
        positives = sorted(_all_positive_roots(lie_type))
        vecs = positives + [tuple(-x for x in a) for a in positives]
        simple = _simple_roots(lie_type)
        self.num_positive = len(positives)
        self.roots: List[Vector] = [tuple(map(Q, a)) for a in vecs]
        self.dim = len(vecs[0])
        self.index: dict = {a: i for i, a in enumerate(self.roots)}
        self.simple_roots: List[Vector] = [tuple(map(Q, a)) for a in simple]
        self.simple_indices: List[int] = [self.index[a] for a in self.simple_roots]

        self.delta: Vector = tuple(Q(sum(col), 2) for col in zip(*positives))

        self.root_norms: List[int] = [scale * _dot(a, a) for a in vecs]
        simple_sq = [_dot(a, a) for a in simple]
        # 2 (x, alpha_j) / (alpha_j, alpha_j) is an integer for a root x; the form scale cancels
        self._root_labels: List[Labels] = [
            tuple(2 * _dot(a, aj) // sq for aj, sq in zip(simple, simple_sq)) for a in vecs
        ]
        # cartan[j][i] = <alpha_i, alpha_j^vee>, label j of alpha_i
        self.cartan: List[List[int]] = [
            [self._root_labels[i][j] for i in self.simple_indices] for j in range(n)
        ]
        # Dynkin labels are linear and tell roots apart
        self.label_index: dict = {l: i for i, l in enumerate(self._root_labels)}
        self.cartan_inverse: List[List[Q]] = _invert_rational(
            [[Q(c) for c in row] for row in self.cartan]
        )
        # scaled_cartan_inverse = cartan_den * cartan_inverse, integral
        self.cartan_den: int = lcm(*(x.denominator for row in self.cartan_inverse for x in row))
        sci = self.scaled_cartan_inverse = _scaled(self.cartan_inverse, self.cartan_den)
        den = self.cartan_den
        # omega_i = sum_m cartan_inverse[m][i] * alpha_m
        self._fund_weights: List[Vector] = [
            tuple(Q(_dot(col, [row[i] for row in sci]), den) for col in zip(*simple))
            for i in range(n)
        ]
        # k(omega_i, alpha_m) = delta_im * half[i], as <omega_i, alpha_m^vee> = delta_im
        half = [scale * sq // 2 for sq in simple_sq]
        # gram = norm_den * k(omega_i, omega_j) = norm_den * cartan_inverse[i][j] * half[i]:
        # every entry over den, so norm_den is den over the gcd of den and the numerators
        num = [[x * h for x in row] for row, h in zip(sci, half)]
        self.norm_den: int = den // gcd(den, *(x for row in num for x in row))
        self.gram: List[List[int]] = [[x // (den // self.norm_den) for x in row] for row in num]
        # komega[p][i] = k(omega_i, alpha_p) = half[i] * (simple-root coordinate i of alpha_p)
        self.komega: List[List[int]] = [
            [h * _dot(row, lab) // den for row, h in zip(sci, half)]
            for lab in self._root_labels[: self.num_positive]
        ]
        self._reflection_perms: List[Tuple[int, ...]] = _reflection_perms(vecs)

    # -- form and conversions ------------------------------------------------

    def pairing(self, a: Vector, b: Vector) -> Q:
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("dimension mismatch")
        return self.form_scale * sum(x * y for x, y in zip(a, b))

    def _labels_exact(self, x: Vector) -> Tuple[Q, ...]:
        return tuple(
            2 * self.pairing(x, aj) / self.pairing(aj, aj) for aj in self.simple_roots
        )

    def to_labels(self, x: Vector) -> Labels:
        """Dynkin labels of a weight-lattice vector; rejects non-lattice input."""
        if self.lie_type.family == "A" and sum(x) != 0:
            raise ValueError("vector is outside the trace-zero weight space of A_n")
        labels = self._labels_exact(x)
        if any(l.denominator != 1 for l in labels):
            raise ValueError(f"non-lattice weight: Dynkin labels {labels} are not integral")
        return tuple(int(l) for l in labels)

    def from_labels(self, labels: Sequence[int]) -> Vector:
        if len(labels) != self.rank:
            raise ValueError("label vector has wrong length")
        fw = self.fundamental_weights()
        out = tuple(Q(0) for _ in range(self.dim))
        for l, w in zip(labels, fw):
            if l:
                out = vec_add(out, vec_scale(l, w))
        return out

    def fundamental_weights(self) -> List[Vector]:
        return self._fund_weights

    def scaled_norm(self, labels: Sequence[int]) -> int:
        """norm_den * ||l||^2 of a label vector; an int for integer labels."""
        return sum(l * sum(map(mul, row, labels)) for l, row in zip(labels, self.gram) if l)

    def labels_norm_sq(self, labels: Sequence) -> Q:
        return Q(self.scaled_norm(labels), self.norm_den)

    def root_labels(self, i: int) -> Labels:
        return self._root_labels[i]

    @property
    def delta_labels(self) -> Labels:
        return tuple(1 for _ in range(self.rank))

    # -- roots ---------------------------------------------------------------

    def root_index(self, a: Vector) -> int:
        try:
            return self.index[a]
        except KeyError:
            raise ValueError(f"{a} is not a root of {self.lie_type}") from None

    def negative_index(self, i: int) -> int:
        return i + self.num_positive if i < self.num_positive else i - self.num_positive

    def dual_root(self, a: Vector) -> Vector:
        self.root_index(a)
        return vec_scale(2 / self.pairing(a, a), a)

    def reflect(self, a: Vector, x: Vector) -> Vector:
        """Reflection of x in the hyperplane orthogonal to the root a."""
        self.root_index(a)
        c = 2 * self.pairing(a, x) / self.pairing(a, a)
        return vec_sub(x, vec_scale(c, a))

    def reflection_perms(self) -> List[Tuple[int, ...]]:
        """Permutation of root indices induced by each root's reflection."""
        return self._reflection_perms


def _reflection_perms(vecs: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """s_a(b) = b - (2 (a, b) / (a, a)) a as root index permutations, in integers.

    Every root has integer coordinates and 2 (a, b) / (a, a) is a Cartan
    integer, so the floor division is exact; the form scale cancels.
    """
    index = {a: i for i, a in enumerate(vecs)}
    perms = []
    for a in vecs:
        aa = _dot(a, a)
        perm = []
        for b in vecs:
            c = 2 * _dot(a, b) // aa
            perm.append(index[tuple(y - c * x for x, y in zip(a, b))])
        perms.append(tuple(perm))
    return perms


def _scaled(mat: List[List[Q]], den: int) -> List[List[int]]:
    """den * mat, for a den that clears every denominator."""
    return [[int(x * den) for x in row] for row in mat]


def _invert_rational(mat: List[List[Q]]) -> List[List[Q]]:
    n = len(mat)
    aug = [row[:] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def build_root_system(t: LieType) -> RootSystem:
    """Construct the root system for a classical type, validating rank bounds."""
    return RootSystem(t)


_EXPECTED_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}


def expected_root_count(t: LieType) -> int:
    return _EXPECTED_COUNT[t.family](t.rank)
