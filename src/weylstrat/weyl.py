"""Weyl groups as permutations of the root index set.

A group keeps only its simple reflections; its order comes from the closed
formula per family, and so does |W_J| for a set J of simple reflections
(`parabolic_order`), which gives orbit sizes without walking them. No command
builds a group element or a root permutation: a class's coset count is |W|
over the stabilizer order that `subsys.stabilizer_order` reads off its factor
list, and everything else needs only W-orbits of label vectors (`subsys` reads
class names and order off factor lists too).

W acts on Dynkin labels only through its simple reflections: s_i is applied
sparsely, negating l_i and changing l_j only at the Dynkin neighbours j of i.
`orbit_walk` walks the tree of an orbit in which each point's parent is s_i of
it at its first negative label, so it holds no set of points seen, and it
carries the sign of each point's depth. `dominant_data` reflects one list in
place at its first negative label; `regular_dominant` is the same walk
stopped at the first zero label, as the shifted folds drop singular points.
`shifted_fold` is the one shifted Weyl-orbit sum (the Brauer-Klimyk rule) of
the orbit path of `orbit_folds` below and of `repthy.tensor_coeff`, and the
tests' oracle for `shifted_folds`: the same sum at many lambdas with one walk
per distinct shifted point, which folds every K block and the W.delta path.

A group keeps, per dominant weight mu it is asked about, the fold of the
orbit sum m_mu (its character expansion), so C tables of every class of a
type share them. `orbit_folds` folds each orbit W.mu as the sorted list
`dominant_orbit` keeps or, when one walk of W.delta filtered once per zero
set J touches fewer points, the points of W.delta positive at J with the mus
of J as the lambdas of one `shifted_folds` call. So W.delta is walked only for
mus with more orbit points than it has (a class-0 table from rank 3 on; never
the near-full classes of rank 8, whose W.delta has 10,321,920 points), and is
never kept. The orbit lists serve the first path and `relcoeff.symmetrize`,
which keeps every orbit a table other than class 0 asks about before that
table's folds, so the first path walks none of them again.

`WeylElement` (a signed root permutation), `identity`, `generators`,
`elements`, `compose`, `setwise_stabilizer` and `coset_representatives` (the
W-orbit of a root index set, the tests' oracle for coset counts) serve only
the tests and the benchmark tracer, which wraps the last three; nothing
enumerates W except `elements` (23040 elements at D6, 46080 at B6 and C6).
The simple reflections' root permutations behind them are built when one of
them first asks. They move to `tests/conftest.py` with ROADMAP item 1, when
the tracer reads in-process spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import factorial
from operator import add, mul, sub
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .rootsys import Labels, RootSystem


@dataclass(frozen=True)
class WeylElement:
    perm: Tuple[int, ...]
    sign: int


class WeylGroup:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        # s_i on labels, sparsely: l_i -> -l_i, l_j -> l_j - cartan[j][i] * l_i at neighbours j
        self._neighbours: List[List[Tuple[int, int]]] = [
            [(j, rs.cartan[j][i]) for j in range(n) if j != i and rs.cartan[j][i]]
            for i in range(n)
        ]
        # after s_i, the first label that can be negative: a neighbour below i, else i + 1
        self._resume: List[int] = [
            min([j for j, _ in self._neighbours[i] if j < i], default=i + 1) for i in range(n)
        ]
        # per dominant weight: its orbit when asked for as a list, and the fold of its orbit sum
        self._orbits: Dict[Labels, List[Labels]] = {}
        self._folds: Dict[Labels, Dict[Labels, int]] = {}
        self._order = expected_group_order(rs)

    def __len__(self):
        return self._order

    @cached_property
    def _simple_perms(self) -> List[Tuple[int, ...]]:
        """s_i on root indices: s_i(b) = b - (label i of b) * alpha_i."""
        rs = self.rs
        return [
            tuple(
                rs.index[tuple(y - rs.root_labels(b)[i] * x for x, y in zip(rs.roots[s], root))]
                for b, root in enumerate(rs.roots)
            )
            for i, s in enumerate(rs.simple_indices)
        ]

    @cached_property
    def identity(self) -> WeylElement:
        return WeylElement(tuple(range(len(self.rs.roots))), 1)

    @cached_property
    def generators(self) -> List[WeylElement]:
        return [WeylElement(p, -1) for p in self._simple_perms]

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

    # -- orbits and dominance ------------------------------------------------

    def orbit_walk(self, mu: Labels) -> Iterator[Tuple[Labels, int]]:
        """Each point of the W-orbit of a dominant mu once, with (-1)^(its depth).

        Every point other than mu has one parent, s_i of it at its first
        negative label i, which is one step nearer mu. So the children of x
        are the s_i(x) at its positive labels i whose labels before i are all
        >= 0, and a depth-first walk of that tree reaches each point once,
        holding no set of the points seen. The depth is the number of
        reflections from mu, so the sign is sign(u) on a regular orbit, where
        u maps mu to the point.
        """
        neighbours = self._neighbours
        stack = [(tuple(mu), 1)]
        while stack:
            x, sign = stack.pop()
            yield x, sign
            clean = True  # no negative label before i
            for i, xi in enumerate(x):
                if xi > 0:
                    y = list(x)
                    y[i] = -xi
                    for j, c in neighbours[i]:
                        y[j] -= c * xi
                    if clean or min(y[:i]) >= 0:
                        stack.append((tuple(y), -sign))
                elif xi:
                    clean = False

    def orbit_labels(self, labels: Sequence[int]) -> List[Labels]:
        """The W-orbit, sorted: the orbit walk from the dominant representative."""
        return sorted(x for x, _ in self.orbit_walk(self.dominant_data(labels)[0]))

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

    def regular_dominant(self, labels: Sequence[int]) -> Optional[Tuple[Labels, int]]:
        """(dominant representative, sign) of a regular point; None for a singular one.

        The walk of `dominant_data`, stopped at the first zero label it scans:
        s_i fixes a point whose label i is 0, so every point of its orbit is
        singular. A regular point has no zero label anywhere on the walk.
        """
        cur = list(labels)
        n = len(cur)
        neighbours = self._neighbours
        resume = self._resume
        sign = 1
        i = 0
        while i < n:
            li = cur[i]
            if li > 0:
                i += 1
            elif li:
                cur[i] = -li
                for j, c in neighbours[i]:
                    cur[j] -= c * li
                sign = -sign
                i = resume[i]
            else:
                return None
        return tuple(cur), sign

    def dominant_orbit(self, mu: Labels) -> List[Labels]:
        """orbit_labels(mu), walked once per dominant mu and kept."""
        orbit = self._orbits.get(mu)
        if orbit is None:
            orbit = self._orbits[mu] = self.orbit_labels(mu)
        return orbit

    def orbit_points(self, dominant: Dict[Labels, int]) -> List[Tuple[Labels, int]]:
        """(nu, c) for every nu in the W-orbit of each dominant mu with non-zero value c."""
        return [(nu, c) for mu, c in dominant.items() if c for nu in self.dominant_orbit(mu)]

    def orbit_size(self, mu: Labels) -> int:
        """|W.mu| = |W| / |W_J| for a dominant mu, J its zero labels, walking no orbit."""
        return len(self) // parabolic_order(self.rs.cartan, [i for i, m in enumerate(mu) if not m])

    def orbit_folds(self, mus: Iterable[Labels]) -> Dict[Labels, Dict[Labels, int]]:
        """The Racah-Speiser row of each orbit sum m_mu, folded once per dominant mu and kept.

        m_mu = sum over lambda of fold[lambda] * chi_lambda: the shifted fold at
        lambda = 0 of the orbit points, each with coefficient 1. Write each
        point as u(mu), u a minimal representative of u W_J, J the zero labels
        of mu; then u(mu) + delta = u(mu + p) with p = u^-1(delta), and these p
        are the points of W.delta positive at J. So the fold is also the
        shifted fold at lambda = mu of the p - delta, each with sign(u), and
        every mu + p lies nearer the dominant chamber than its u(mu) + delta.

        The mus not yet folded take the cheaper of two paths together. Each
        orbit as `dominant_orbit` keeps it: |W| / |W_J| points per mu of zero
        set J, each with a longer dominant walk than its mu + p. Or one walk of
        W.delta, filtered once per non-empty J (|W| points each), and per J one
        `shifted_folds` call over the points positive at J, bounded by the
        largest ||mu + delta||^2, which no row passes (||mu + p|| <= ||mu +
        delta||). Only the folds are kept.
        """
        folds = self._folds
        wanted = dict.fromkeys(mus)
        groups: Dict[Tuple[int, ...], List[Labels]] = {}
        for mu in wanted:
            if mu not in folds:
                groups.setdefault(tuple(i for i, m in enumerate(mu) if not m), []).append(mu)
        if groups:
            buy = len(self) * (1 + len(groups) - (() in groups))
            rent = sum(len(g) * self.orbit_size(g[0]) for g in groups.values())
            if buy < rent:
                delta = (1,) * self.rs.rank
                walk = [(tuple(x - 1 for x in p), sign) for p, sign in self.orbit_walk(delta)]
                for zeros, group in groups.items():
                    points = [pt for pt in walk if all(pt[0][i] >= 0 for i in zeros)]
                    bound = max(self.rs.scaled_norm([m + 1 for m in mu]) for mu in group)
                    for mu, fold, _ in shifted_folds(self, points, group, bound):
                        folds[mu] = fold
            else:
                zero = (0,) * self.rs.rank
                for mu in chain.from_iterable(groups.values()):
                    points = ((nu, 1) for nu in self.dominant_orbit(mu))
                    folds[mu] = shifted_fold(self, points, zero)
        return {mu: folds[mu] for mu in wanted}

    # -- subgroups and cosets ------------------------------------------------

    def setwise_stabilizer(self, root_indices: Iterable[int]) -> List[WeylElement]:
        """Every element mapping the index set onto itself, by a scan of all of W."""
        target = frozenset(root_indices)
        if not target:
            return list(self.elements)
        return [
            e for e in self.elements if frozenset(e.perm[i] for i in target) == target
        ]

    def coset_representatives(self, root_indices: Iterable[int]) -> Set[FrozenSet[int]]:
        """The W-orbit of the index set S: its images w(S), one per left coset w*Stab(S).

        So there are |W| / |Stab(S)| of them. The walk is breadth-first under
        the simple reflection permutations and builds no element.
        """
        start = frozenset(root_indices)
        seen = {start}
        frontier = [start]
        perms = self._simple_perms
        while frontier:
            nxt = []
            for img in frontier:
                for perm in perms:
                    moved = frozenset(map(perm.__getitem__, img))
                    if moved not in seen:
                        seen.add(moved)
                        nxt.append(moved)
            frontier = nxt
        return seen


def shifted_fold(
    wg: WeylGroup, points: Iterable[Tuple[Labels, int]], lam: Sequence[int]
) -> Dict[Labels, int]:
    """Sum c * sign(w) on the dominant w(lam + nu + delta) - delta over the (nu, c) in points.

    Singular shifts drop out. Every row that a regular shift lands on is a
    key, with its sum even when that sum is zero.
    """
    out: Dict[Labels, int] = {}
    shift = [l + 1 for l in lam]
    regular_dominant = wg.regular_dominant
    for nu, c in points:
        hit = regular_dominant(list(map(add, shift, nu)))
        if hit is not None:
            dom, sign = hit
            row = tuple(d - 1 for d in dom)
            out[row] = out.get(row, 0) + sign * c
    return out


def shifted_folds(
    wg: WeylGroup, points: Sequence[Tuple[Labels, int]], lams: Sequence[Labels], bound: int
) -> Iterator[Tuple[Labels, Dict[Labels, int], bool]]:
    """(lam, fold, far) per lam in turn: shifted_fold at lam without the rows past bound.

    A row is past bound when norm_den * ||row + delta||^2 exceeds it; far says
    whether lam lands on one. Each distinct point lam + nu + delta is reflected
    once per call, through a table keyed by packed ints, and each distinct
    row's norm is taken once. Digit i of a key is (lam_i - min lam_i) +
    (nu_i - min nu_i) over the lams and points, so the key of lam + nu + delta
    is the key of lam plus that of nu and never carries. Each key maps to
    (row, sign, far), or to () for a singular point; each fold lives until the
    next is asked for.
    """
    rs = wg.rs
    nus = [nu for nu, _ in points]
    lam_lo = list(map(min, zip(*lams)))
    nu_lo = list(map(min, zip(*nus)))
    radices = [
        hi - lo + hi2 - lo2 + 1
        for hi, lo, hi2, lo2 in zip(map(max, zip(*lams)), lam_lo, map(max, zip(*nus)), nu_lo)
    ]
    places = [1]
    for r in radices[:-1]:
        places.append(places[-1] * r)
    packed = [(sum(map(mul, map(sub, nu, nu_lo), places)), nu, c) for nu, c in points]

    lookup: Dict[int, tuple] = {}
    rows: Dict[Labels, Tuple[Labels, bool]] = {}  # dominant -> (row, far), one norm per row
    for lam in lams:
        base = sum(map(mul, map(sub, lam, lam_lo), places))
        shift = [x + 1 for x in lam]
        fold: Dict[Labels, int] = {}
        far = False
        for key, nu, c in packed:
            key += base
            hit = lookup.get(key)
            if hit is None:
                found = wg.regular_dominant(list(map(add, shift, nu)))
                hit = ()
                if found is not None:
                    dom, sign = found
                    known = rows.get(dom)
                    if known is None:
                        known = rows[dom] = (tuple(d - 1 for d in dom), rs.scaled_norm(dom) > bound)
                    hit = (known[0], sign, known[1])
                lookup[key] = hit
            if hit:
                row, sign, past = hit
                if past:
                    far = True
                else:
                    fold[row] = fold.get(row, 0) + sign * c
        yield lam, fold, far


def parabolic_order(cartan: Sequence[Sequence[int]], nodes: Iterable[int]) -> int:
    """|W_J|, the order of the subgroup generated by the simple reflections at J.

    The product over the connected components of J in the Dynkin diagram of
    a classical type of the `weyl_order` of its kind: B_k or C_k when the
    component holds a double bond, D_k when it holds a branch node, else A_k.
    """
    left = set(nodes)
    order = 1
    while left:
        comp = [left.pop()]
        for i in comp:
            for j in [j for j in left if cartan[i][j]]:
                left.remove(j)
                comp.append(j)
        if any(cartan[i][j] < -1 for i in comp for j in comp):
            kind = "B"
        elif any(sum(1 for j in comp if j != i and cartan[i][j]) > 2 for i in comp):
            kind = "D"
        else:
            kind = "A"
        order *= weyl_order(kind, len(comp))
    return order


def weyl_order(kind: str, m: int) -> int:
    """|W(kind_m)|: (m + 1)! for A_m, 2^m m! for B_m and C_m, 2^(m-1) m! for D_m."""
    if kind == "A":
        return factorial(m + 1)
    return 2 ** (m - (kind == "D")) * factorial(m)


def generate_group(rs: RootSystem) -> WeylGroup:
    """The Weyl group of rs, held as its simple reflections."""
    return WeylGroup(rs)


def expected_group_order(rs: RootSystem) -> int:
    return parabolic_order(rs.cartan, range(rs.rank))
