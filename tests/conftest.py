import functools
import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction as Q
from operator import add, mul

import pytest

from weylstrat.relcoeff import CoeffTable, subset_sums
from weylstrat.repthy import _pairing_labels_root, dominant_weight_system
from weylstrat.rootsys import MAX_RANK, LieType, _invert_rational, _reflect, build_root_system
from weylstrat.weyl import WeylElement, generate_group, shifted_fold


# every classical type up to rank 6
RANK_SIX_TYPES = [
    (f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, 7)
]
# every type the commands accept: A1-A8, B2-B8, C2-C8, D4-D8
SUPPORTED_TYPES = [
    (f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, MAX_RANK + 1)
]


@functools.cache
def system(family, rank):
    rs = build_root_system(LieType(family, rank))
    return rs, generate_group(rs)


@pytest.fixture
def sys_of():
    return system


def tuple_count_oracle(family, n):
    """Count admissible factor tuples straight from the constraints."""

    def multisets(min_entry, bound):
        # nondecreasing tuples with entries >= min_entry and sum <= bound
        out = [()]
        def rec(prefix, lo, left):
            for v in range(lo, left + 1):
                out.append(prefix + (v,))
                rec(prefix + (v,), v, left - v)
        rec((), min_entry, bound)
        return out

    count = 0
    if family == "A":
        for i in multisets(1, n + 1):
            if sum(i) + len(i) - 1 <= n:
                count += 1
        return count
    for i in multisets(1, n):
        if sum(i) + len(i) > n:
            continue
        left_i = n - sum(i) - len(i)
        for j in multisets(2, left_i):
            left_j = left_i - sum(j)
            if family == "D":
                count += 1
            else:
                count += len(multisets(1, left_j))
    return count


def word_element(wg, rng, length):
    """The product of `length` random simple reflections, without enumerating W."""
    w = wg.identity
    for _ in range(length):
        w = wg.compose(rng.choice(wg.generators), w)
    return w


def inverse(w):
    """The inverse element: the inverse permutation, the same sign."""
    inv = [0] * len(w.perm)
    for i, p in enumerate(w.perm):
        inv[p] = i
    return WeylElement(tuple(inv), w.sign)


@functools.cache
def reflection_perms(rs):
    """Each root's reflection as a permutation of root indices, built once per root system.

    One integer reflection per positive root a; the negatives follow, as
    s_(-a) = s_a. No command builds a root permutation: this table is the
    tests' oracle, read by `reflection`, `span_subsystem` and the brute-force
    scans.
    """
    positives = rs.roots[: rs.num_positive]
    perms = [tuple(rs.index[_reflect(a, b)] for b in rs.roots) for a in positives]
    return perms + perms


def reflection(wg, root_index):
    """The reflection in the root at root_index, as an element."""
    return WeylElement(reflection_perms(wg.rs)[root_index], -1)


# -- the Fraction vector layer: the oracle for the integer tables of RootSystem --


@functools.cache
def form_scale(rs):
    """k = form_scale * (dot product), chosen so that short roots have k(a, a) = 2."""
    return Q(2, min(sum(x * x for x in a) for a in rs.roots))


def pairing(rs, a, b):
    """k(a, b) of two coordinate vectors, as a Fraction."""
    return form_scale(rs) * sum(map(mul, a, b))


def simple_roots(rs):
    return [rs.roots[i] for i in rs.simple_indices]


@functools.cache
def cartan_inverse(rs):
    """The inverse of the Cartan matrix <alpha_i, alpha_j^vee>, from Fraction pairings."""
    simple = simple_roots(rs)
    cartan = [[2 * pairing(rs, ai, aj) / pairing(rs, aj, aj) for ai in simple] for aj in simple]
    return _invert_rational(cartan)


@functools.cache
def fundamental_weights(rs):
    """omega_i = sum_m cartan_inverse[m][i] * alpha_m, as Fraction vectors."""
    inverse, simple = cartan_inverse(rs), simple_roots(rs)
    return [
        tuple(sum(row[i] * a[k] for row, a in zip(inverse, simple)) for k in range(rs.dim))
        for i in range(rs.rank)
    ]


def to_labels(rs, x):
    """Dynkin labels 2 k(x, alpha_j) / k(alpha_j, alpha_j) of a weight-lattice vector."""
    labels = [2 * pairing(rs, x, a) / pairing(rs, a, a) for a in simple_roots(rs)]
    assert all(l.denominator == 1 for l in labels), labels
    return tuple(int(l) for l in labels)


def from_labels(rs, labels):
    """The vector sum_i labels[i] * omega_i."""
    fund = fundamental_weights(rs)
    return tuple(sum((l * w[k] for l, w in zip(labels, fund)), Q(0)) for k in range(rs.dim))


def reflect(rs, a, x):
    """The reflection x - (2 k(a, x) / k(a, a)) a of x in the hyperplane orthogonal to a."""
    c = 2 * pairing(rs, a, x) / pairing(rs, a, a)
    return tuple(y - c * z for z, y in zip(a, x))


def half_sum(rs):
    """delta, half the sum of the positive roots, as a Fraction vector."""
    return tuple(Q(sum(col), 2) for col in zip(*rs.roots[: rs.num_positive]))


def orbit(wg, x):
    """The W-orbit of a vector, through its label orbit."""
    rs = wg.rs
    return [from_labels(rs, l) for l in wg.orbit_labels(to_labels(rs, x))]


def reflect_labels(wg, i, labels):
    """s_i applied to a label vector, sparsely through the group's Dynkin neighbours."""
    out = list(labels)
    li = out[i]
    out[i] = -li
    for j, c in wg._neighbours[i]:
        out[j] -= c * li
    return tuple(out)


def dominant_representative(wg, x):
    """Pair (d, w) with w(x) = d dominant, reflecting at the first negative label."""
    rs = wg.rs
    cur = to_labels(rs, x)
    w = wg.identity
    while True:
        i = next((j for j, l in enumerate(cur) if l < 0), None)
        if i is None:
            return from_labels(rs, cur), w
        cur = reflect_labels(wg, i, cur)
        w = wg.compose(wg.generators[i], w)


def coset_movers(wg, root_indices):
    """Each image w(S) in the W-orbit of S mapped to one w reaching it.

    Breadth-first under the simple reflections, keeping the first element to
    reach each image, so the keys are wg.coset_representatives(S).
    """
    start = frozenset(root_indices)
    movers = {start: wg.identity}
    frontier = [start]
    while frontier:
        nxt = []
        for img in frontier:
            for g in wg.generators:
                moved = frozenset(g.perm[i] for i in img)
                if moved not in movers:
                    movers[moved] = wg.compose(g, movers[img])
                    nxt.append(moved)
        frontier = nxt
    return movers


def are_conjugate(wg, sub1, sub2):
    """True iff some Weyl image of sub1's index set is sub2's.

    Subsystems of different sizes or root lengths are not compared further;
    otherwise the W-orbit of sub1's index set is walked.
    """
    s1, s2 = sub1.root_indices, sub2.root_indices
    norms = wg.rs.root_norms
    if sorted(norms[i] for i in s1) != sorted(norms[i] for i in s2):
        return False
    return s2 in wg.coset_representatives(s1)


# a root index set and its closed flag, as the tests' oracles find them
Span = namedtuple("Span", "root_indices closed")


def span_subsystem(rs, base):
    """The smallest index set holding the base and stable under its own reflections.

    A fixpoint over root indices, with the pair scan's closed flag, as a
    `Span`. The oracle for the roots and closed flag that
    `subsys.enumerate_classes` reads off the blocks of each class.
    """
    perms = reflection_perms(rs)
    current = set(base)
    changed = True
    while changed:
        changed = False
        for a in list(current):
            for b in list(current):
                if perms[a][b] not in current:
                    current.add(perms[a][b])
                    changed = True
    indices = frozenset(current)
    return Span(indices, pair_scan_closed(rs, indices))


def pair_scan_closed(rs, indices):
    """Whether a + b lies in the index set for every pair a, b in it whose sum is a root.

    Every pair is tried. The oracle for the factor rule of `subsys.closed`.
    """
    indices = frozenset(indices)
    for a, b in itertools.combinations(indices, 2):
        k = rs.index.get(tuple(map(add, rs.roots[a], rs.roots[b])))
        if k is not None and k not in indices:
            return False
    return True


def orbit_walk_label(wg, classes, root_indices):
    """The label of the first class whose representative lies in the W-orbit of the index set.

    None if there is none. The W-orbit of the set is walked once. The oracle
    for the label of `subsys.subsystem`.
    """
    orbit = wg.coset_representatives(root_indices)
    return next((c.label for c in classes if c.root_indices in orbit), None)


def orbit_walk_leq(wg, classes):
    """The class order by brute force: cls1 <= cls2 iff some image w(S1) lies inside S2.

    Each class's W-orbit of root index sets is walked once. Classes whose
    roots of some length outnumber the other's are not compared further. The
    oracle for the factor-list rule of `subsys.class_leq`.
    """
    norms = wg.rs.root_norms
    counts = {c.label: Counter(norms[i] for i in c.root_indices) for c in classes}
    leq = {}
    for c1 in classes:
        orbit = wg.coset_representatives(c1.root_indices)
        for c2 in classes:
            s2 = c2.root_indices
            fits = counts[c1.label] <= counts[c2.label]
            leq[(c1.label, c2.label)] = fits and any(img <= s2 for img in orbit)
    return leq


def root_coords(rs, lab):
    """Coordinates of a label vector over the simple roots."""
    inv = cartan_inverse(rs)
    n = rs.rank
    return [sum(inv[i][j] * lab[j] for j in range(n)) for i in range(n)]


def tuple_dominant_data(wg, labels):
    """WeylGroup.dominant_data as a tuple walk: a new tuple per reflection, each scan from label 0."""
    cur, sign = tuple(labels), 1
    while True:
        for i, l in enumerate(cur):
            if l < 0:
                break
        else:
            return cur, sign, 0 not in cur
        cur, sign = reflect_labels(wg, i, cur), -sign


@functools.cache
def coroot_labels(rs):
    """<omega_i, a^vee> = 2 k(omega_i, a) / k(a, a) for every root a, in Fraction arithmetic."""
    weights = fundamental_weights(rs)
    return [tuple(2 * pairing(rs, w, a) / pairing(rs, a, a) for w in weights) for a in rs.roots]


@functools.cache
def label_mat(rs, w):
    """The dense matrix of w on Dynkin labels: <w(l), alpha_j^vee> = <l, (w^-1 alpha_j)^vee>.

    Row j holds the coroot labels of w^-1(alpha_j), the root at index
    w.perm.index(simple_indices[j]).
    """
    rows = coroot_labels(rs)
    mat = tuple(rows[w.perm.index(s)] for s in rs.simple_indices)
    assert all(x.denominator == 1 for row in mat for x in row)
    return tuple(tuple(int(x) for x in row) for row in mat)


def apply_labels(rs, w, labels):
    """w applied to a label vector through its dense matrix."""
    return tuple(sum(map(mul, row, labels)) for row in label_mat(rs, w))


@functools.lru_cache(maxsize=None)
def weight_system(rs, wg, lam):
    """dominant_weight_system, computed once per irrep of each shared system()."""
    return dominant_weight_system(rs, wg, lam)


def weyl_dim(rs, labels):
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
    assert not rem, f"Weyl dimension formula gave {Q(num, den)} at {labels}"
    return dim


def identity_value(rs, table):
    """Sum of coefficient times irrep dimension; zero for every non-full class."""
    return sum(c * weyl_dim(rs, lam) for lam, c in table.entries.items())


def tensor_coeff(wg, lam_fac, lam, lam2):
    """Multiplicity of the irrep lam2 in (irrep lam_fac) tensor (irrep lam), by Brauer-Klimyk."""
    ws = dominant_weight_system(wg.rs, wg, lam_fac)
    total = shifted_fold(wg, wg.orbit_points(ws.dominant_entries), lam).get(tuple(lam2), 0)
    assert total >= 0, "negative tensor multiplicity"
    return total


def freudenthal_d_entries(rs, wg, table):
    """D table as sum of c_lambda * m_lambda(mu) over Freudenthal weight systems, keys sorted."""
    acc = {}
    for lam, c in table.entries.items():
        for mu, m in weight_system(rs, wg, lam).dominant_entries.items():
            acc[mu] = acc.get(mu, Q(0)) + Q(c) * m
    return dict(sorted(acc.items()))


def k_block_oracle(rs, wg, values, cutoff_norm_sq, columns):
    """K-block entries and incomplete columns, folding one orbit contribution at a time.

    A contribution landing past the cutoff flags its column; the entries sum
    in Fraction arithmetic and drop a key whose sum returns to zero.
    """
    entries, incomplete = {}, set()
    orbits = [(mu, d, wg.orbit_labels(mu)) for mu, d in values.items() if d]
    for lam in columns:
        for mu, d, orbit in orbits:
            for mu2 in orbit:
                shifted = tuple(a + b + 1 for a, b in zip(lam, mu2))
                dom, sign, regular = wg.dominant_data(shifted)
                if not regular:
                    continue
                if rs.labels_norm_sq(dom) > cutoff_norm_sq:
                    incomplete.add(lam)
                    continue
                key = (tuple(x - 1 for x in dom), lam)
                val = entries.get(key, Q(0)) + sign * Q(d)
                if val:
                    entries[key] = val
                else:
                    entries.pop(key, None)
    return entries, incomplete


def tree_walk_fold(wg, mu):
    """The fold of the orbit sum m_mu point by point: the shifted fold at 0 of the orbit walk of mu.

    The oracle for WeylGroup.orbit_folds, which may fold from the points of
    W.delta instead; the dict keeps the rows whose sum is zero.
    """
    return shifted_fold(wg, ((nu, 1) for nu, _ in wg.orbit_walk(mu)), (0,) * len(mu))


@functools.cache
def dominant_of(wg, key):
    """wg.dominant_data(key)[0], kept per group and point."""
    return wg.dominant_data(key)[0]


@functools.cache
def spread_orbit(wg, mu):
    """wg.orbit_labels(mu), kept per group and dominant mu."""
    return wg.orbit_labels(mu)


@functools.cache
def shifted_row(wg, nu):
    """(row, sign) of the dominant w(nu + delta) - delta, or None if nu + delta is singular."""
    dom, sign, regular = wg.dominant_data(tuple(a + 1 for a in nu))
    return (tuple(d - 1 for d in dom), sign) if regular else None


def spread_coeff_table(wg, cls, scales=None):
    """The C table through the spread symmetrized map, folded one point at a time.

    V is binned by the dominant image of each key, each non-zero bin is spread
    evenly over its orbit, and each point nu of the spread map adds its value
    times sign(w) at the dominant w(nu + delta) - delta (lambda = 0 of the
    Brauer-Klimyk fold). Dominant images, orbits and shifted rows are kept per
    group, so the spread maps of every class of a type share them.
    """
    members = cls.root_indices
    v = subset_sums(wg.rs, [i for i in range(len(wg.rs.roots)) if i not in members], scales)
    n_cosets = len(wg.coset_representatives(members))
    bins = {}
    for key, val in v.items():
        mu = dominant_of(wg, key)
        bins[mu] = bins.get(mu, 0) + val
    spread = {}
    for mu, total in bins.items():
        if total:
            orbit = spread_orbit(wg, mu)
            share, rem = divmod(n_cosets * total, len(orbit))
            assert rem == 0, (mu, total)
            spread.update(dict.fromkeys(orbit, share))
    folded = {}
    for nu, c in spread.items():
        hit = shifted_row(wg, nu)
        if hit is not None:
            row, sign = hit
            folded[row] = folded.get(row, 0) + sign * c
    entries = {k: c for k, c in sorted(folded.items()) if c}
    dominant = {k: c for k, c in spread.items() if min(k) >= 0}
    return CoeffTable(entries, dominant)


def pairing_tables(rs):
    """The RootSystem tables rebuilt from Fraction pairings of the root vectors.

    The oracle for the integer construction: every table through `pairing`,
    the labels of a root through its pairings with the simple roots, and
    komega and gram as pairings of the Fraction fundamental weights.
    """
    simple, positives = simple_roots(rs), rs.roots[: rs.num_positive]
    cartan = [list(col) for col in zip(*(to_labels(rs, a) for a in simple))]
    inverse = cartan_inverse(rs)
    cartan_den = math.lcm(*(x.denominator for row in inverse for x in row))
    fund = fundamental_weights(rs)
    fund_gram = [[pairing(rs, a, b) for b in fund] for a in fund]
    norm_den = math.lcm(*(x.denominator for row in fund_gram for x in row))
    komega = [[pairing(rs, w, a) for w in fund] for a in positives]
    assert all(x.denominator == 1 for row in komega for x in row)
    return {
        "root_norms": [pairing(rs, a, a) for a in rs.roots],
        "cartan": cartan,
        "root_labels": [to_labels(rs, a) for a in rs.roots],
        "cartan_den": cartan_den,
        "scaled_cartan_inverse": [[int(x * cartan_den) for x in row] for row in inverse],
        "norm_den": norm_den,
        "gram": [[int(x * norm_den) for x in row] for row in fund_gram],
        "komega": [[int(x) for x in row] for row in komega],
    }
