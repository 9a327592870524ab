"""Root subsystems: closure, conjugacy classes, and their partial order.

A class is one list of (kind, m) factors in label order: A parts, then D
parts from D2, then B/C parts, each ascending. Its label is the factors joined
by + ("0" for none), which keeps the non-conjugate pairs B1/A1, C1/A1,
D2/A1+A1 and D3/A3 apart even though they are isomorphic. Each factor of the
representative is a root system of its kind on its own block of orthonormal
coordinates, with the base that `rootsys.block_base` gives that block (see
`enumerate_classes`).

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

from .rootsys import RootSystem, block_base
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


# factor kinds in label order; B and C never occur in one type
_KIND_ORDER = {"A": 0, "D": 1, "B": 2, "C": 2}
_MIN_SIZE = {"A": 1, "D": 2, "B": 1, "C": 1}


def _width(kind: str, m: int) -> int:
    """Coordinates a kind_m factor takes: m + 1 for A_m, m for the others."""
    return m + (kind == "A")


def _factor_lists(family: str, n: int) -> Iterator[List[Tuple[str, int]]]:
    """Every list of (kind, m) factors in label order whose blocks fit the coordinates.

    The kinds are A, then D, then the family's own B or C (family A has only A
    and family D no third kind), each kind's sizes ascending. Family A has n + 1
    coordinates and the others n.
    """
    kinds = {"A": "A", "D": "AD"}.get(family, "AD" + family)

    def rec(prefix: List[Tuple[str, int]], first: int, least: int, left: int):
        yield prefix
        for k in range(first, len(kinds)):
            kind = kinds[k]
            m = least if k == first else _MIN_SIZE[kind]
            while _width(kind, m) <= left:
                yield from rec(prefix + [(kind, m)], k, m, left - _width(kind, m))
                m += 1

    yield from rec([], 0, 1, n + (family == "A"))


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
    parsed.sort(key=lambda t: (_KIND_ORDER[t[0]], t[1], t[0]))
    return "+".join(f"{f}{i}" for f, i in parsed)


def enumerate_classes(rs: RootSystem, wg: WeylGroup) -> List[SubsystemClass]:
    """One class per factor list, ordered by (cardinality, label).

    Each factor's base is `block_base` on its own block of coordinates. A
    blocks take the coordinates from the first on and D blocks follow, except
    that in family D the last factor, if it is a D, sits at the last
    coordinates. B/C blocks tile down from the last coordinate, the first
    factor last.
    """
    family, dim = rs.lie_type.family, rs.dim
    out = []
    for factors in _factor_lists(family, rs.rank):
        base: List[int] = []
        lo, hi = 0, dim
        for i, (kind, m) in enumerate(factors):
            width = _width(kind, m)
            if kind in "BC" or (kind == family == "D" and i == len(factors) - 1):
                hi -= width
                start = hi
            else:
                start, lo = lo, lo + width
            base += [rs.index[r] for r in block_base(kind, m, start, dim)]
        label = "+".join(f"{kind}{m}" for kind, m in factors) or "0"
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
