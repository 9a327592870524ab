import functools
from fractions import Fraction as Q
from operator import mul

import pytest

from weylstrat.relcoeff import CoeffTable, subset_sums
from weylstrat.repthy import dominant_weight_system
from weylstrat.rootsys import LieType, build_root_system
from weylstrat.weyl import generate_group, shifted_fold


# every classical type up to rank 6
RANK_SIX_TYPES = [
    (f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 4)] for r in range(lo, 7)
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


def tuple_dominant_data(wg, labels):
    """WeylGroup.dominant_data as a tuple walk: a new tuple per reflection, each scan from label 0."""
    cur, sign = tuple(labels), 1
    while True:
        for i, l in enumerate(cur):
            if l < 0:
                break
        else:
            return cur, sign, 0 not in cur
        cur, sign = wg._reflect(i, cur), -sign


@functools.cache
def coroot_labels(rs):
    """<omega_i, a^vee> = 2 k(omega_i, a) / k(a, a) for every root a, in Fraction arithmetic."""
    weights = rs.fundamental_weights()
    return [tuple(2 * rs.pairing(w, a) / rs.pairing(a, a) for w in weights) for a in rs.roots]


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


def freudenthal_d_entries(rs, wg, table):
    """D table as sum of c_lambda * m_lambda(mu) over Freudenthal weight systems, keys sorted."""
    acc = {}
    for lam, c in table.entries.items():
        for mu, m in weight_system(rs, wg, lam).dominant_entries.items():
            acc[mu] = acc.get(mu, Q(0)) + Q(c) * m
    return dict(sorted(acc.items()))


def k_block_oracle(rs, wg, dtable, cutoff_norm_sq, columns):
    """K-block entries and incomplete columns, folding one orbit contribution at a time.

    A contribution landing past the cutoff flags its column; the entries sum
    in Fraction arithmetic and drop a key whose sum returns to zero.
    """
    entries, incomplete = {}, set()
    orbits = [(mu, d, wg.orbit_labels(mu)) for mu, d in dtable.entries.items() if d]
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


def spread_coeff_table(rs, wg, cls, ratios=None):
    """The C table through the spread symmetrized map, folded one point at a time.

    V is binned by one dominant_data per key, each non-zero bin is spread
    evenly over its orbit_labels, and the spread map is folded by
    shifted_fold at lambda = 0.
    """
    members = cls.representative.root_indices
    v = subset_sums(rs, [i for i in range(len(rs.roots)) if i not in members], ratios)
    n_cosets = len(wg.coset_representatives(members))
    bins = {}
    for key, val in v.items():
        mu = wg.dominant_data(key)[0]
        bins[mu] = bins.get(mu, 0) + val
    spread = {}
    for mu, total in bins.items():
        if total:
            orbit = wg.orbit_labels(mu)
            share, rem = divmod(n_cosets * total, len(orbit))
            assert rem == 0, (mu, total)
            spread.update(dict.fromkeys(orbit, share))
    folded = shifted_fold(wg, spread.items(), (0,) * rs.rank)
    entries = {k: c for k, c in sorted(folded.items()) if c}
    dominant = {k: c for k, c in spread.items() if min(k) >= 0}
    return CoeffTable(cls.label, entries, len(wg) // n_cosets, dominant)
