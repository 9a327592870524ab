"""Root subsystems: closure, conjugacy classes, and their partial order.

Class enumeration follows the classical-series recipe: split off A factors by
deleting a node, and other factors by first extending the remaining base with
the negative of its highest root (or of the dual of the highest dual root).
Labels come from the generating tuple, which keeps the non-conjugate pairs
B1/A1, C1/A1, D2/A1+A1 and D3/A3 apart even though they are isomorphic.

Conjugacy, canonical keys and the class order read only the W-orbit of a root
index set, the images w(S) that `WeylGroup.coset_representatives` walks; no
Weyl element is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .rootsys import RootSystem, Vector, vec_neg
from .weyl import WeylGroup


@dataclass(frozen=True)
class RootSubsystem:
    root_indices: FrozenSet[int]
    closed: bool
    label: str = ""

    def __len__(self):
        return len(self.root_indices)


@dataclass(frozen=True)
class SubsystemClass:
    label: str
    base: Tuple[Vector, ...]
    representative: RootSubsystem

    def __len__(self):
        return len(self.representative)


@dataclass
class ClassPoset:
    classes: List[SubsystemClass]
    leq: Dict[Tuple[str, str], bool]
    hasse_edges: List[Tuple[str, str]]

    def is_leq(self, label1: str, label2: str) -> bool:
        return self.leq[(label1, label2)]


def span_subsystem(rs: RootSystem, base: Sequence[Vector]) -> RootSubsystem:
    """Smallest subset containing the base and stable under its own reflections."""
    perms = rs.reflection_perms()
    current = {rs.root_index(a) for a in base}
    changed = True
    while changed:
        changed = False
        for a in list(current):
            pa = perms[a]
            for b in list(current):
                c = pa[b]
                if c not in current:
                    current.add(c)
                    changed = True
    indices = frozenset(current)
    return RootSubsystem(indices, _closed(rs, indices))


def _closed(rs: RootSystem, indices: FrozenSet[int]) -> bool:
    # labels are linear, so a + b is a root iff its labels are those of a root
    labels, idx = rs.root_labels, rs.label_index
    for a, b in itertools.combinations(indices, 2):
        k = idx.get(tuple(map(add, labels(a), labels(b))))
        if k is not None and k not in indices:
            return False
    return True


def is_closed(rs: RootSystem, sub: RootSubsystem) -> bool:
    return _closed(rs, sub.root_indices)


def canonical_key(wg: WeylGroup, indices: FrozenSet[int]) -> Tuple[int, ...]:
    """Lexicographically minimal sorted index set over the W-orbit."""
    return min(tuple(sorted(img)) for img in wg.coset_representatives(indices))


# -- class enumeration -------------------------------------------------------


def _nondecreasing(min_entry: int, budget: int, cost) -> Iterator[Tuple[int, ...]]:
    """All nondecreasing tuples with entries >= min_entry and cost(t) <= budget."""

    def rec(prefix: Tuple[int, ...], lo: int) -> Iterator[Tuple[int, ...]]:
        yield prefix
        v = lo
        while cost(prefix + (v,)) <= budget:
            yield from rec(prefix + (v,), v)
            v += 1

    yield from rec((), min_entry)


def _family_tuples(family: str, n: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    if family == "A":
        for i in _nondecreasing(1, n, lambda t: sum(t) + len(t) - 1):
            yield (i,)
        return
    if family == "D":
        for i in _nondecreasing(1, n, lambda t: sum(t) + len(t)):
            left = n - sum(i) - len(i)
            for j in _nondecreasing(2, left, sum):
                yield (i, j)
        return
    # B and C share the (A..., D..., B/C...) pattern
    for i in _nondecreasing(1, n, lambda t: sum(t) + len(t)):
        left_d = n - sum(i) - len(i)
        for j in _nondecreasing(2, left_d, sum):
            left_k = left_d - sum(j)
            for k in _nondecreasing(1, left_k, sum):
                yield (i, j, k)


def _label(family: str, parts: Tuple[Tuple[int, ...], ...]) -> str:
    factors: List[str] = []
    i = parts[0]
    factors += [f"A{m}" for m in i]
    if family in ("B", "C", "D"):
        j = parts[1]
        factors += [f"D{m}" for m in j]
    if family in ("B", "C"):
        k = parts[2]
        factors += [f"{family}{m}" for m in k]
    return "+".join(factors) if factors else "0"


def _base_for_tuple(rs: RootSystem, parts: Tuple[Tuple[int, ...], ...]) -> List[Vector]:
    family = rs.lie_type.family
    n = rs.rank
    simple = rs.simple_roots
    base: List[Vector] = []
    i = parts[0]
    # A factors occupy consecutive nodes with a one-node gap between factors
    pos = 1
    for m in i:
        base.extend(simple[pos - 1 : pos - 1 + m])
        pos += m + 1
    a_end = sum(i) + len(i)  # i^r + r

    if family == "A":
        return base

    if family == "D":
        j = parts[1]
        acc = 0
        for idx, jm in enumerate(j):
            if idx < len(j) - 1:
                l = a_end + acc + 1
                base.append(simple[l - 1])
                base.append(vec_neg(rs.named_root("D", l)))
                base.extend(simple[l : l + jm - 2])
            else:  # largest D factor sits at the forked tail
                base.extend(simple[n - jm :])
            acc += jm
        return base

    # families B and C
    j, k = parts[1], parts[2]
    ext_d = "B" if family == "B" else "C~"
    acc = 0
    for jm in j:
        l = a_end + acc + 1
        base.append(simple[l - 1])
        base.append(vec_neg(rs.named_root(ext_d, l)))
        base.extend(simple[l : l + jm - 2])
        acc += jm
    ext_k = "A" if family == "B" else "C"
    ksum = list(itertools.accumulate(k))
    for m in range(len(k), 0, -1):
        if m == 1:
            base.extend(simple[n - k[0] :])
        else:
            l = n - ksum[m - 1] + 1
            base.append(vec_neg(rs.named_root(ext_k, l)))
            base.extend(simple[l - 1 : n - ksum[m - 2] - 1])
    return base


def enumerate_classes(rs: RootSystem, wg: WeylGroup) -> List[SubsystemClass]:
    """One class per admissible factor tuple, ordered by (cardinality, label)."""
    out = []
    for parts in _family_tuples(rs.lie_type.family, rs.rank):
        base = _base_for_tuple(rs, parts)
        sub = span_subsystem(rs, base)
        label = _label(rs.lie_type.family, parts)
        sub = RootSubsystem(sub.root_indices, sub.closed, label)
        out.append(SubsystemClass(label, tuple(base), sub))
    out.sort(key=lambda c: (len(c), c.label))
    return out


# -- conjugacy and order -----------------------------------------------------


def _norm_counter(rs: RootSystem, indices) -> Counter:
    return Counter(rs.root_norms[i] for i in indices)


def are_conjugate(wg: WeylGroup, sub1: RootSubsystem, sub2: RootSubsystem) -> bool:
    """True iff some Weyl image of sub1's index set is sub2's."""
    s1, s2 = sub1.root_indices, sub2.root_indices
    if len(s1) != len(s2) or _norm_counter(wg.rs, s1) != _norm_counter(wg.rs, s2):
        return False
    return s2 in wg.coset_representatives(s1)


def _may_fit(rs: RootSystem, s1: FrozenSet[int], s2: FrozenSet[int]) -> bool:
    """Whether s2 has at least as many roots of each length as s1, so an image could fit."""
    if len(s1) > len(s2):
        return False
    c1, c2 = _norm_counter(rs, s1), _norm_counter(rs, s2)
    return all(c1[k] <= c2[k] for k in c1)


def class_leq(wg: WeylGroup, cls1: SubsystemClass, cls2: SubsystemClass) -> bool:
    """True iff some Weyl image of cls1's representative lies inside cls2's."""
    s1 = cls1.representative.root_indices
    s2 = cls2.representative.root_indices
    return _may_fit(wg.rs, s1, s2) and any(img <= s2 for img in wg.coset_representatives(s1))


def build_poset(wg: WeylGroup, classes: Sequence[SubsystemClass]) -> ClassPoset:
    """The order of class_leq, walking each class's W-orbit once."""
    classes = sorted(classes, key=lambda c: (len(c), c.label))
    leq: Dict[Tuple[str, str], bool] = {}
    for c1 in classes:
        s1 = c1.representative.root_indices
        orbit = wg.coset_representatives(s1)  # always needed: c1 passes the prefilter for c1
        for c2 in classes:
            s2 = c2.representative.root_indices
            leq[(c1.label, c2.label)] = _may_fit(wg.rs, s1, s2) and any(img <= s2 for img in orbit)
    for c1 in classes:
        for c2 in classes:
            if c1.label != c2.label and leq[(c1.label, c2.label)] and leq[(c2.label, c1.label)]:
                raise ValueError(f"distinct classes {c1.label}, {c2.label} compare both ways")
    edges = []
    for c1 in classes:
        for c2 in classes:
            if c1.label == c2.label or not leq[(c1.label, c2.label)]:
                continue
            if any(
                c3.label not in (c1.label, c2.label)
                and leq[(c1.label, c3.label)]
                and leq[(c3.label, c2.label)]
                for c3 in classes
            ):
                continue
            edges.append((c1.label, c2.label))
    return ClassPoset(list(classes), leq, edges)


def poset_to_dot(poset: ClassPoset) -> str:
    """DOT rendering: filled nodes for closed classes, hollow for non-closed."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for c in poset.classes:
        style = "filled" if c.representative.closed else "solid"
        lines.append(f'  "{c.label}" [shape=circle, style={style}, label="{c.label}"];')
    for lo, hi in sorted(poset.hasse_edges):
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
