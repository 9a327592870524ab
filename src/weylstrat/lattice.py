"""Exponential-kernel lattices and the per-root coprime ratios p/q.

The kernel of exp on the maximal torus is described by a rational matrix R
whose rows expand its generators over the basis of (2*pi*i)-scaled coroots of
the simple roots. The simply connected group has R = identity; SO(2n+1) adds
a half-step along the unique short simple coroot. For a root a, the ratio
p_a/q_a generates the projection lattice cut out by the constraint system on
the other simple-coroot coordinates; membership of a in the subsystem of a
torus point then reduces to a rational integrality test, with no
transcendental arithmetic anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .rootsys import RootSystem, Vector, _invert_rational
from .subsys import RootSubsystem, _closed


@dataclass(frozen=True)
class ExpKernel:
    """Rows express kernel generators in the 2*pi*i coroot basis of the simple roots."""

    rows: Tuple[Tuple[Q, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("kernel matrix must be square")
        if _rank_rational([list(r) for r in self.rows]) != n:
            raise ValueError("kernel generators are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class PQRatio:
    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0 or gcd(self.p, self.q) != 1:
            raise ValueError("need coprime p, q with q > 0")

    def ratio(self) -> Q:
        return Q(self.p, self.q)


@dataclass(frozen=True)
class TorusPoint:
    """x = exp(A + iB); A in 2*pi*i-coroot coordinates, B in coroot coordinates."""

    a_coords: Tuple[Q, ...]
    b_coords: Tuple[Q, ...]

    @staticmethod
    def make(a: Sequence, b: Optional[Sequence] = None) -> "TorusPoint":
        a = tuple(Q(x) for x in a)
        b = tuple(Q(x) for x in b) if b is not None else tuple(Q(0) for _ in a)
        if len(a) != len(b):
            raise ValueError("A and B coordinate vectors differ in length")
        return TorusPoint(a, b)


def kernel_preset(rs: RootSystem, name: str) -> ExpKernel:
    """Built-in kernels: 'sc' (simply connected) and 'so-odd' (SO(2n+1))."""
    n = rs.rank
    ident = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    if name == "sc":
        return ExpKernel(tuple(tuple(r) for r in ident))
    if name == "so-odd":
        short = min(rs.root_norms)
        if all(x == short for x in rs.root_norms):
            raise ValueError("so-odd preset needs a short/long length split")
        short_simple = [
            i for i, a in enumerate(rs.simple_roots) if rs.pairing(a, a) == short
        ]
        if len(short_simple) != 1:
            raise ValueError(
                f"so-odd preset is defined only when exactly one simple root is short "
                f"(got {len(short_simple)} for {rs.lie_type})"
            )
        ident[short_simple[0]][short_simple[0]] = Q(1, 2)
        return ExpKernel(tuple(tuple(r) for r in ident))
    raise ValueError(f"unknown kernel preset {name!r}")


def kernel_from_file(path: str) -> ExpKernel:
    """Load a kernel matrix from whitespace-separated rows of rationals."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                try:
                    rows.append(tuple(Q(tok) for tok in line.split()))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in kernel row {line!r} of {path}") from None
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    return ExpKernel(tuple(rows))


def check_kernel(rs: RootSystem, kernel: ExpKernel) -> ExpKernel:
    """The kernel itself, once its rank is rs.rank and it lies between coroots and coweights.

    The coroot lattice lies inside the kernel exactly when each simple coroot
    (a row of the identity) is an integral combination of the rows of R, that
    is when R^-1 is integral. The kernel lies inside the coweight lattice
    exactly when every simple root pairs integrally with every generator:
    sum_j R[a][j] * <alpha_i, alpha_j^vee> is entry (a, i) of R times
    rs.cartan, so R * cartan must be integral.
    """
    if kernel.rank != rs.rank:
        raise ValueError(f"kernel has rank {kernel.rank}, but {rs.lie_type} has rank {rs.rank}")
    inverse = _invert_rational([list(r) for r in kernel.rows])
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("kernel does not contain the coroot lattice (R^-1 is not integral)")
    for row in kernel.rows:
        for i in range(rs.rank):
            if sum(r * c[i] for r, c in zip(row, rs.cartan)).denominator != 1:
                raise ValueError(
                    "kernel is not inside the coweight lattice (R * cartan is not integral)"
                )
    return kernel


# -- p/q ratios ---------------------------------------------------------------


def _simple_conjugate(rs: RootSystem, root_index: int) -> int:
    """Index into the simple roots of some Weyl image of the given root."""
    simple_pos = {ri: k for k, ri in enumerate(rs.simple_indices)}
    perms = [rs.reflection_perms()[i] for i in rs.simple_indices]
    seen = {root_index}
    frontier = [root_index]
    while frontier:
        nxt = []
        for i in frontier:
            if i in simple_pos:
                return simple_pos[i]
            for p in perms:
                j = p[i]
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    raise ValueError("root has no simple conjugate; not a root index?")


def pq_ratio(rs: RootSystem, kernel: ExpKernel, a: Vector) -> PQRatio:
    """Coprime (p, q) with {sum_i r_ia k_i : k integral, other columns vanish} = (p/q)Z.

    The root is first moved onto the base by the Weyl action; any mover is
    valid because the kernel lattice is Weyl-stable.
    """
    idx = rs.root_index(a)
    j0 = _simple_conjugate(rs, idx)
    n = kernel.rank
    others = [[kernel.rows[i][j] for j in range(n) if j != j0] for i in range(n)]
    den = lcm(*(f.denominator for row in others for f in row)) if n > 1 else 1
    mat = [[int(f * den) for f in row] for row in others]
    basis = _integer_left_kernel(mat, n)
    gens = [sum(kernel.rows[i][j0] * k[i] for i in range(n)) for k in basis]
    g = _rational_gcd([x for x in gens if x != 0])
    if g == 0:
        raise ValueError("degenerate kernel: projection lattice is trivial")
    return PQRatio(g.numerator, g.denominator)


def pq_map(rs: RootSystem, kernel: ExpKernel) -> List[PQRatio]:
    """p/q for every root index (constant along W-orbits, computed per root)."""
    return [pq_ratio(rs, kernel, a) for a in rs.roots]


def _rational_gcd(values: Sequence[Q]) -> Q:
    if not values:
        return Q(0)
    den = lcm(*(v.denominator for v in values))
    num = 0
    for v in values:
        num = gcd(num, int(v * den))
    return Q(num, den)


# -- Gamma_x membership test ---------------------------------------------------


def gamma_x(
    rs: RootSystem, ratios: Sequence[PQRatio], x: TorusPoint
) -> RootSubsystem:
    """Roots whose reflection fixes x: (q/p)*a(A) integral and a(B) = 0."""
    n = rs.rank
    if len(x.a_coords) != n:
        raise ValueError("torus point has wrong rank")
    members = []
    for i in range(len(rs.roots)):
        lab = rs.root_labels(i)
        a_val = sum(x.a_coords[j] * lab[j] for j in range(n))
        b_val = sum(x.b_coords[j] * lab[j] for j in range(n))
        if b_val == 0 and (Q(ratios[i].q, ratios[i].p) * a_val).denominator == 1:
            members.append(i)
    indices = frozenset(members)
    return RootSubsystem(indices, _closed(rs, indices))


# -- exact integer linear algebra ----------------------------------------------


def _rank_rational(mat: List[List[Q]]) -> int:
    m = [row[:] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def smith_normal_form(mat: List[List[int]]) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """(S, D, T) with D = S @ mat @ T diagonal and S, T unimodular."""
    d = [row[:] for row in mat]
    rows, cols = len(d), len(d[0]) if d else 0
    s = [[int(i == j) for j in range(rows)] for i in range(rows)]
    t = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row_i -= f * row_j
        d[i] = [a - f * b for a, b in zip(d[i], d[j])]
        s[i] = [a - f * b for a, b in zip(s[i], s[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for r in range(rows):
            d[r][i] -= f * d[r][j]
        for r in range(cols):
            t[r][i] -= f * t[r][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    k = 0
    while k < min(rows, cols):
        piv = next(
            ((r, c) for r in range(k, rows) for c in range(k, cols) if d[r][c] != 0),
            None,
        )
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            done = True
            for r in range(k + 1, rows):
                if d[r][k]:
                    f = d[r][k] // d[k][k]
                    row_op(r, k, f)
                    if d[r][k]:
                        swap_rows(k, r)
                        done = False
            for c in range(k + 1, cols):
                if d[k][c]:
                    f = d[k][c] // d[k][k]
                    col_op(c, k, f)
                    if d[k][c]:
                        swap_cols(k, c)
                        done = False
            if done:
                break
        k += 1
    return s, d, t


def _integer_left_kernel(mat: List[List[int]], n: int) -> List[List[int]]:
    """Basis of {k in Z^n : k @ mat = 0} for an n-row integer matrix."""
    cols = len(mat[0]) if mat and mat[0] else 0
    if cols == 0:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    s, d, _t = smith_normal_form(mat)
    # k @ mat = 0  <=>  (k @ S^-1) @ D = 0; kernel rows of D pull back through S
    basis = []
    for i in range(n):
        if i >= cols or (i >= len(d) or d[i][i] == 0):
            basis.append(s[i][:])
    return basis
