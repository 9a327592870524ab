"""Root subsystems: closure, conjugacy classes, and their partial order.

Classes are indexed by factor tuples (A parts, D parts, then B/C parts), and
each factor of the representative is a root system of its type on its own
block of orthonormal coordinates (see `_base_for_tuple`). Labels come from the
tuple, which keeps the non-conjugate pairs B1/A1, C1/A1, D2/A1+A1 and D3/A3
apart even though they are isomorphic.

Canonical keys and the class order read only the W-orbit of a root index set,
the images w(S) that `WeylGroup.coset_representatives` walks; no Weyl element
is built. So does the class of a subsystem (`cli.cmd_gammax`): the first
class whose representative lies in that orbit.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .rootsys import RootSystem
from .weyl import WeylGroup


@dataclass(frozen=True)
class RootSubsystem:
    root_indices: FrozenSet[int]
    closed: bool

    def __len__(self):
        return len(self.root_indices)


@dataclass(frozen=True)
class SubsystemClass:
    label: str
    base: Tuple[int, ...]  # root indices
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


def span_subsystem(rs: RootSystem, base: Sequence[int]) -> RootSubsystem:
    """Smallest index set containing the base and stable under its own reflections."""
    perms = rs.reflection_perms()
    current = set(base)
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


def normalize_label(label: str) -> str:
    """Canonical factor order: A parts, then D parts, then B/C parts, each ascending.

    Factors are joined by + (or ⊕); class 0 is "0". An empty label or an
    empty factor, as in "A1+" or "A1++A1", is refused with ValueError like
    any other malformed one.
    """
    if label == "0":
        return "0"
    parsed = []
    for f in label.replace("⊕", "+").split("+"):
        m = re.fullmatch(r"([ABCD])(\d+)", f.strip())
        if not m:
            raise ValueError(f"bad class label {label!r}")
        parsed.append((m.group(1), int(m.group(2))))
    order = {"A": 0, "D": 1, "B": 2, "C": 2}
    parsed.sort(key=lambda t: (order[t[0]], t[1], t[0]))
    return "+".join(f"{f}{i}" for f, i in parsed)


def _root(rs: RootSystem, *terms: Tuple[int, int]) -> int:
    """The index of the root that is the sum of c * e_k over the terms (k, c)."""
    v = [0] * rs.dim
    for k, c in terms:
        v[k] += c
    return rs.index[tuple(v)]


def _base_for_tuple(rs: RootSystem, parts: Tuple[Tuple[int, ...], ...]) -> List[int]:
    """A base of the class's representative: each factor spans a block of coordinates.

    A_m blocks take m + 1 consecutive coordinates from the first on, and D blocks
    follow, except that in family D the largest sits at the last coordinates.
    B/C blocks tile down from the last coordinate, the first factor last. A
    block's base is e_a - e_(a+1) inside it; D, B and C blocks add e_(b-1) + e_b,
    e_b or 2e_b at their last coordinate b.
    """
    family, dim = rs.lie_type.family, rs.dim
    blocks = []  # (kind, first coordinate, size)
    start = 0
    for m in parts[0]:
        blocks.append(("A", start, m + 1))
        start += m + 1
    d_parts = list(parts[1]) if family != "A" else []
    if family == "D" and d_parts:
        m = d_parts.pop()
        blocks.append(("D", dim - m, m))
    for m in d_parts:
        blocks.append(("D", start, m))
        start += m
    end = dim
    for m in parts[2] if family in ("B", "C") else ():
        end -= m
        blocks.append((family, end, m))

    base: List[int] = []
    for kind, lo, size in blocks:
        b = lo + size - 1
        base += [_root(rs, (a, 1), (a + 1, -1)) for a in range(lo, b)]
        if kind == "D":
            base.append(_root(rs, (b - 1, 1), (b, 1)))
        elif kind != "A":
            base.append(_root(rs, (b, 1 if kind == "B" else 2)))
    return base


def enumerate_classes(rs: RootSystem, wg: WeylGroup) -> List[SubsystemClass]:
    """One class per admissible factor tuple, ordered by (cardinality, label)."""
    out = []
    for parts in _family_tuples(rs.lie_type.family, rs.rank):
        base = _base_for_tuple(rs, parts)
        label = _label(rs.lie_type.family, parts)
        out.append(SubsystemClass(label, tuple(base), span_subsystem(rs, base)))
    out.sort(key=lambda c: (len(c), c.label))
    return out


# -- class order -------------------------------------------------------------


def _may_fit(rs: RootSystem, s1: FrozenSet[int], s2: FrozenSet[int]) -> bool:
    """Whether s2 has at least as many roots of each length as s1, so an image could fit."""
    if len(s1) > len(s2):
        return False
    c1, c2 = (Counter(rs.root_norms[i] for i in s) for s in (s1, s2))
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
