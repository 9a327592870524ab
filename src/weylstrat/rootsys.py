"""Classical root systems as integer tables.

Families A, B, C, D are realized in orthonormal coordinates (A_n inside the
trace-zero hyperplane of an (n+1)-dimensional space, B/C/D in n dimensions),
and every root is a tuple of integer coordinates. The form k is the dot
product scaled so that short roots have k(a, a) = 2; this normalization
cancels in every reduced coefficient downstream. `block_base` is the one
recipe that places the simple roots of a type on a block of coordinates: the
root system's own base is the block that starts at coordinate 0, and `subsys`
builds every class representative from such blocks. `positive_roots` closes
a base under its reflections, the one closure that gives both the root
system's roots and the roots of every block of a representative.

Every table is built from integer dot products and exact floor division:
root norms, the Cartan matrix, root labels, the pairings `komega` of
fundamental weights with positive roots (through simple-root coordinates)
and `gram`, norm_den * k(omega_i, omega_j), the form in label space.
`cartan_den` times the inverse Cartan matrix is an integer matrix too, and
the reflection permutations act on root indices. A `Fraction` appears only
at the API edge, in `labels_norm_sq`, and in `_invert_rational`, which gives
`cartan_den` here and the kernel inverse in `lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

Vector = Tuple[int, ...]
Labels = Tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
# the largest rank any test or example uses
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


def block_base(kind: str, m: int, lo: int, dim: int) -> List[Vector]:
    """Simple roots of a kind_m system on the coordinates from lo on, in dim dimensions.

    A_m takes m + 1 coordinates and every other kind m. The base is
    e_a - e_(a+1) inside the block, and B_m, C_m and D_m add e_b, 2e_b or
    e_(b-1) + e_b at the block's last coordinate b.
    """
    z = (0,) * dim
    b = lo + m - (kind != "A")
    simple = [z[:a] + (1, -1) + z[a + 2 :] for a in range(lo, b)]
    if kind == "D":
        simple.append(z[: b - 1] + (1, 1) + z[b + 1 :])
    elif kind != "A":
        simple.append(z[:b] + (1 if kind == "B" else 2,) + z[b + 1 :])
    return simple


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


class RootSystem:
    """Root system as integer coordinates, norms, labels and pairing tables.

    Roots are indexed positives-first in lexicographic coordinate order;
    root index i + num_positive is the negative of root index i.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        self.rank = n
        # k = scale * (dot product); chosen so short roots have k(a,a) = 2
        scale = 2 if lie_type.family == "B" else 1

        self.dim = n + (lie_type.family == "A")
        simple = block_base(lie_type.family, n, 0, self.dim)
        positives = positive_roots(simple)
        self.num_positive = len(positives)
        self.roots: List[Vector] = positives + [tuple(-x for x in a) for a in positives]
        self.index: dict = {a: i for i, a in enumerate(self.roots)}
        self.simple_indices: List[int] = [self.index[a] for a in simple]

        self.root_norms: List[int] = [scale * _dot(a, a) for a in self.roots]
        simple_sq = [_dot(a, a) for a in simple]
        # 2 (x, alpha_j) / (alpha_j, alpha_j) is an integer for a root x; the form scale cancels
        self._root_labels: List[Labels] = [
            tuple(2 * _dot(a, aj) // sq for aj, sq in zip(simple, simple_sq)) for a in self.roots
        ]
        # cartan[j][i] = <alpha_i, alpha_j^vee>, label j of alpha_i
        self.cartan: List[List[int]] = [
            [self._root_labels[i][j] for i in self.simple_indices] for j in range(n)
        ]
        inverse = _invert_rational([[Q(c) for c in row] for row in self.cartan])
        # scaled_cartan_inverse = cartan_den * (inverse Cartan matrix), integral
        den = self.cartan_den = lcm(*(x.denominator for row in inverse for x in row))
        sci = self.scaled_cartan_inverse = _scaled(inverse, den)
        # k(omega_i, alpha_m) = delta_im * half[i], as <omega_i, alpha_m^vee> = delta_im
        half = [scale * sq // 2 for sq in simple_sq]
        # gram = norm_den * k(omega_i, omega_j) = norm_den * inverse[i][j] * half[i]:
        # every entry over den, so norm_den is den over the gcd of den and the numerators
        num = [[x * h for x in row] for row, h in zip(sci, half)]
        self.norm_den: int = den // gcd(den, *(x for row in num for x in row))
        self.gram: List[List[int]] = [[x // (den // self.norm_den) for x in row] for row in num]
        # komega[p][i] = k(omega_i, alpha_p) = half[i] * (simple-root coordinate i of alpha_p)
        self.komega: List[List[int]] = [
            [h * _dot(row, lab) // den for row, h in zip(sci, half)]
            for lab in self._root_labels[: self.num_positive]
        ]
        self._reflection_perms: List[Tuple[int, ...]] = _reflection_perms(self.roots, self.index)

    def scaled_norm(self, labels: Sequence[int]) -> int:
        """norm_den * ||l||^2 of a label vector; an int for integer labels."""
        return sum(l * sum(map(mul, row, labels)) for l, row in zip(labels, self.gram) if l)

    def labels_norm_sq(self, labels: Sequence) -> Q:
        return Q(self.scaled_norm(labels), self.norm_den)

    def root_labels(self, i: int) -> Labels:
        return self._root_labels[i]

    def negative_index(self, i: int) -> int:
        return i + self.num_positive if i < self.num_positive else i - self.num_positive

    def reflection_perms(self) -> List[Tuple[int, ...]]:
        """Permutation of root indices induced by each root's reflection."""
        return self._reflection_perms


def _reflect(a: Vector, b: Vector) -> Vector:
    """s_a(b) = b - (2 (a, b) / (a, a)) a, in integers.

    Every root has integer coordinates and 2 (a, b) / (a, a) is a Cartan
    integer, so the floor division is exact; the form scale cancels. A b
    orthogonal to a is returned as it is.
    """
    ab = _dot(a, b)
    if not ab:
        return b
    c = 2 * ab // _dot(a, a)
    return tuple(y - c * x for x, y in zip(a, b))


def positive_roots(simple: List[Vector]) -> List[Vector]:
    """The lexicographically positive roots of the system with these simple roots, sorted.

    The simple reflections generate W, and every root is W-conjugate to a
    simple root, so closing the simple roots under their reflections gives
    every root.
    """
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        frontier = {_reflect(a, b) for b in frontier for a in simple} - roots
        roots |= frontier
    zero = (0,) * len(simple[0])
    return sorted(r for r in roots if r > zero)


def _reflection_perms(roots: Sequence[Vector], index: dict) -> List[Tuple[int, ...]]:
    """Each s_a on root indices, built once per positive a: negatives follow, and s_(-a) = s_a."""
    perms = [tuple(index[_reflect(a, b)] for b in roots) for a in roots[: len(roots) // 2]]
    return perms + perms


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
