"""Exponential-kernel lattices and the integer q of every root.

The kernel of exp on the maximal torus is described by a rational matrix R
whose rows expand its generators over the basis of (2*pi*i)-scaled coroots of
the simple roots. The simply connected group has R = identity; SO(2n+1) adds
a half-step along the unique short simple coroot. For a root a, the ratio
p_a/q_a generates the lattice K ∩ ℝ·a^∨ of kernel points on the line of the
coroot. Every kernel accepted here contains the coroot lattice, so p_a = 1 and
`pq_map` returns q_a alone, computed through R^-1; membership of a in the
subsystem of a torus point then reduces to a rational integrality test, with
no transcendental arithmetic anywhere. `gamma_x` returns that subsystem as
a `subsys.RootSubsystem`, the type of a listed class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .rootsys import RootSystem, _invert_rational
from .subsys import RootSubsystem, subsystem


# kernel matrix rows: kernel generators in the 2*pi*i coroot basis of the simple roots
Kernel = Tuple[Tuple[Q, ...], ...]


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


def kernel_preset(rs: RootSystem, name: str) -> Kernel:
    """Built-in kernels: 'sc' (simply connected) and 'so-odd' (SO(2n+1))."""
    n = rs.rank
    ident = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    if name == "sc":
        return tuple(tuple(r) for r in ident)
    if name == "so-odd":
        short = min(rs.root_norms)
        if all(x == short for x in rs.root_norms):
            raise ValueError("so-odd preset needs a short/long length split")
        short_simple = [j for j, i in enumerate(rs.simple_indices) if rs.root_norms[i] == short]
        if len(short_simple) != 1:
            raise ValueError(
                f"so-odd preset is defined only when exactly one simple root is short "
                f"(got {len(short_simple)} for {rs.lie_type})"
            )
        ident[short_simple[0]][short_simple[0]] = Q(1, 2)
        return tuple(tuple(r) for r in ident)
    raise ValueError(f"unknown kernel preset {name!r}")


def kernel_from_file(path: str) -> Kernel:
    """Load a kernel matrix from whitespace-separated rows of rationals.

    The rows are checked only by `pq_map`, as every kernel is.
    """
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
    return tuple(rows)


def _integral_inverse(rs: RootSystem, kernel: Kernel) -> List[List[int]]:
    """R^-1 as integers; ValueError unless R has rank rs.rank and coroots ⊆ kernel ⊆ coweights.

    The checks run in the order square, independent, rank, coroots, coweights,
    so each bad kernel gets the first message that applies.

    The coroot lattice lies inside the kernel exactly when each simple coroot
    (a row of the identity) is an integral combination of the rows of R, that
    is when R^-1 is integral. The kernel lies inside the coweight lattice
    exactly when every simple root pairs integrally with every generator:
    sum_j R[a][j] * <alpha_i, alpha_j^vee> is entry (a, i) of R times
    rs.cartan, so R * cartan must be integral.
    """
    n = len(kernel)
    if any(len(r) != n for r in kernel):
        raise ValueError("kernel matrix must be square")
    try:
        inverse = _invert_rational([list(r) for r in kernel])
    except ValueError:
        raise ValueError("kernel generators are linearly dependent") from None
    if n != rs.rank:
        raise ValueError(f"kernel has rank {n}, but {rs.lie_type} has rank {rs.rank}")
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("kernel does not contain the coroot lattice (R^-1 is not integral)")
    for row in kernel:
        for i in range(rs.rank):
            if sum(r * c[i] for r, c in zip(row, rs.cartan)).denominator != 1:
                raise ValueError(
                    "kernel is not inside the coweight lattice (R * cartan is not integral)"
                )
    return [[x.numerator for x in row] for row in inverse]


# -- q per root ---------------------------------------------------------------


def pq_map(rs: RootSystem, kernel: Kernel) -> List[int]:
    """q of every root a, with {t : t * a^vee in the kernel lattice} = (1/q)Z.

    The kernel goes through the checks of `_integral_inverse` first, presets
    included, so it contains the coroot lattice and R^-1 is an integer matrix
    M. In simple-coroot coordinates the kernel is K = Z^n R, and a root a has
    the integral coroot coordinates c_j = <omega_j, a^vee> = 2 k(omega_j, a) / k(a, a).
    So t * c lies in K exactly when t * (c M) is integral, and the t form
    (1/q)Z with q = gcd(c M): p is 1 for every root. The roots a and -a share q.
    """
    inverse = _integral_inverse(rs, kernel)
    out = []
    for i in range(rs.num_positive):
        c = [2 * k // rs.root_norms[i] for k in rs.komega[i]]
        out.append(gcd(*(sum(ci * row[j] for ci, row in zip(c, inverse)) for j in range(rs.rank))))
    return out + out


# -- Gamma_x membership test ---------------------------------------------------


def gamma_x(rs: RootSystem, scales: Sequence[int], x: TorusPoint) -> RootSubsystem:
    """Γ_x, the roots whose reflection fixes x: q*a(A) integral and a(B) = 0.

    Its factors, label and closed flag are read off its roots by `subsys.subsystem`.
    """
    n = rs.rank
    if len(x.a_coords) != n:
        raise ValueError("torus point has wrong rank")
    members = []
    for i in range(len(rs.roots)):
        lab = rs.root_labels(i)
        a_val = sum(x.a_coords[j] * lab[j] for j in range(n))
        b_val = sum(x.b_coords[j] * lab[j] for j in range(n))
        if b_val == 0 and (a_val * scales[i]).denominator == 1:
            members.append(i)
    return subsystem(rs, members)
