"""Root subsystems: conjugacy classes, their partial order, and closedness.

A class is one list of (kind, m) factors in label order: A parts, then D
parts from D2, then B/C parts, each ascending. Its label is the factors joined
by + ("0" for none), which keeps the non-conjugate pairs B1/A1, C1/A1,
D2/A1+A1 and D3/A3 apart even though they are isomorphic. Each factor of the
representative is a root system of its kind on its own block of orthonormal
coordinates, the `rootsys.positive_roots` closure of the base that
`rootsys.block_base` gives that block (see `enumerate_classes`).

The class order (`class_leq`), whether a subsystem is closed (`closed`), the
order of its setwise stabilizer in W (`stabilizer_order`, which gives the
coset count of a C table) and the class of a subsystem (`class_label`, which
`gammax` prints) are read off factor lists, with no W-orbit walk, no root
permutation and no scan of root pairs. Only the tests read canonical keys, the
least image w(S) over the W-orbit of S.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Collection, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .rootsys import RootSystem, Vector, block_base, positive_roots
from .weyl import WeylGroup, weyl_order


@dataclass(frozen=True)
class RootSubsystem:
    root_indices: FrozenSet[int]
    closed: bool

    def __len__(self):
        return len(self.root_indices)


@dataclass(frozen=True)
class SubsystemClass:
    label: str
    factors: Tuple[Tuple[str, int], ...]  # (kind, m) in label order
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


def block_factors(rs: RootSystem, root_indices: Collection[int]) -> List[Tuple[str, int]]:
    """The (kind, m) factors of the subsystem on these roots, one per block of coordinates.

    Coordinates that share a root merge into blocks, one irreducible factor of
    width k each: the family's B_k or C_k if it holds a root +-e_i or +-2e_i,
    D_k if it holds all 2k(k-1) roots +-e_a +- e_b, else A_(k-1).
    """
    blocks: List[Tuple[Set[int], List[Vector]]] = []  # (coordinates, roots)
    for root in [rs.roots[i] for i in root_indices]:
        coords, members = {c for c, x in enumerate(root) if x}, [root]
        for block in [b for b in blocks if b[0] & coords]:
            blocks.remove(block)
            coords |= block[0]
            members += block[1]
        blocks.append((coords, members))
    factors = []
    for coords, members in blocks:
        k = len(coords)
        if any(sum(map(bool, r)) == 1 for r in members):
            factors.append((rs.lie_type.family, k))
        else:
            factors.append(("D", k) if len(members) == 2 * k * (k - 1) else ("A", k - 1))
    return factors


def closed(family: str, factors: Collection[Tuple[str, int]]) -> bool:
    """Whether a subsystem with these (kind, m) factors holds each root that sums two of its roots.

    Roots of distinct blocks sum to no root but for the short roots of two B
    blocks, as e_i + e_j is a root of B_n. Inside a block, only a D block of
    family C misses a sum: 2e_a = (e_a - e_b) + (e_a + e_b).
    """
    kinds = [kind for kind, _ in factors]
    return kinds.count("B") < 2 and not (family == "C" and "D" in kinds)


def _even_a_cover(rs: RootSystem, factors: Collection[Tuple[str, int]]) -> bool:
    """Whether A blocks of even width cover every coordinate: at D_n, the classes with a twin."""
    return sum(m + 1 for kind, m in factors if kind == "A" and m % 2) == rs.dim


def stabilizer_order(rs: RootSystem, factors: Collection[Tuple[str, int]]) -> int:
    """|Stab(S)|, the order of the setwise stabilizer in W of a subsystem S with these factors.

    Read off the signed-permutation model: W(A_n) permutes the n + 1
    coordinates, W(B_n) = W(C_n) permutes the n coordinates and changes their
    signs, and W(D_n) is the half of W(B_n) with an even number of sign
    changes. Stab(S) maps each block of S onto a block of the same factor, so
    k equal factors give their order to the k-th power times k!. An A_m block
    gives the (m + 1)! permutations of its coordinates, times 2 outside family
    A for the block's sign flip; a B_m, C_m or D_m block gives every signed
    permutation, 2^m m!. The f free coordinates give f! in family A and 2^f f!
    otherwise. At D_n the product is halved unless A blocks of even width cover
    every coordinate, as then every element flips whole blocks of even width.
    """
    family = rs.lie_type.family
    free = rs.dim - sum(_width(kind, m) for kind, m in factors)
    order = factorial(free) if family == "A" else weyl_order("B", free)
    for (kind, m), k in Counter(factors).items():
        if kind == "A":
            block = weyl_order("A", m) * (1 if family == "A" else 2)
        else:
            block = weyl_order("B", m)
        order *= block**k * factorial(k)
    if family == "D" and not _even_a_cover(rs, factors):
        order //= 2
    return order


def class_label(rs: RootSystem, root_indices: Collection[int]) -> Optional[str]:
    """The label of the class of the subsystem on these roots; None for an unlisted D_n twin.

    The label joins the `block_factors` in label order. Of a D_n twin pair
    (ROADMAP item 2), the class listed has an even number of roots e_a + e_b.
    """
    factors = block_factors(rs, root_indices)
    if rs.lie_type.family == "D" and _even_a_cover(rs, factors):
        if sum(sum(rs.roots[i]) == 2 for i in root_indices) % 2:
            return None
    return normalize_label("+".join(f"{kind}{m}" for kind, m in factors) or "0")


def enumerate_classes(rs: RootSystem, wg: WeylGroup) -> List[SubsystemClass]:
    """One class per factor list, ordered by (cardinality, label).

    Each factor's base is `block_base` on its own block of coordinates, and
    its roots are that base's `positive_roots` and their negatives. A blocks
    take the coordinates from the first on and D blocks follow, except that in
    family D the last factor, if it is a D, sits at the last coordinates. B/C
    blocks tile down from the last coordinate, the first factor last.
    """
    family, dim = rs.lie_type.family, rs.dim
    out = []
    for factors in _factor_lists(family, rs.rank):
        base: List[int] = []
        positives: List[int] = []
        lo, hi = 0, dim
        for i, (kind, m) in enumerate(factors):
            width = _width(kind, m)
            if kind in "BC" or (kind == family == "D" and i == len(factors) - 1):
                hi -= width
                start = hi
            else:
                start, lo = lo, lo + width
            simple = block_base(kind, m, start, dim)
            base += [rs.index[r] for r in simple]
            positives += [rs.index[r] for r in positive_roots(simple)]
        label = "+".join(f"{kind}{m}" for kind, m in factors) or "0"
        indices = frozenset(positives + [rs.negative_index(j) for j in positives])
        sub = RootSubsystem(indices, closed(family, factors))
        out.append(SubsystemClass(label, tuple(factors), tuple(base), sub))
    out.sort(key=lambda c: (len(c), c.label))
    return out


# -- class order -------------------------------------------------------------


# the factor kinds a block of each kind contains: D_k contains A_(k-1), and B_k
# and C_k contain D_k as their long or short roots
_HOSTS = {"A": "A", "D": "AD", "B": "ADB", "C": "ADC"}


def _pack(parts: Tuple[Tuple[int, str], ...], room: Tuple[Tuple[str, int], ...]) -> bool:
    """Whether the (width, kind) parts fit into the (hosts, width left) blocks of room.

    Of the blocks alike in hosts and room left, a part tries only the first.
    """
    if not parts:
        return True
    (width, kind), rest = parts[0], parts[1:]
    return any(
        _pack(rest, room[:j] + ((hosts, left - width),) + room[j + 1 :])
        for j, (hosts, left) in enumerate(room)
        if kind in hosts and width <= left and (hosts, left) not in room[:j]
    )


def class_leq(cls1: SubsystemClass, cls2: SubsystemClass) -> bool:
    """True iff some Weyl image of cls1's representative lies inside cls2's.

    Each irreducible factor of cls1 lies inside one block of cls2, so this
    holds iff cls1's factors pack into cls2's blocks: a block takes only the
    kinds `_HOSTS` names for it, and the widths it takes sum to at most its own.
    """
    parts = sorted(((_width(kind, m), kind) for kind, m in cls1.factors), reverse=True)
    room = tuple((_HOSTS[kind], _width(kind, m)) for kind, m in cls2.factors)
    return len(cls1) <= len(cls2) and _pack(tuple(parts), room)


def build_poset(classes: Sequence[SubsystemClass]) -> ClassPoset:
    """The order of class_leq on every pair of classes, and its Hasse edges."""
    classes = sorted(classes, key=lambda c: (len(c), c.label))
    leq = {(c1.label, c2.label): class_leq(c1, c2) for c1 in classes for c2 in classes}
    pairs = [(a, b) for a, b in leq if a != b and leq[(a, b)]]
    for a, b in pairs:
        if leq[(b, a)]:
            raise ValueError(f"distinct classes {a}, {b} compare both ways")
    # a Hasse edge is a pair with no third class between them, and only a class listed
    # between them can be one: distinct comparable classes differ in size
    labels = [c.label for c in classes]
    pos = {label: i for i, label in enumerate(labels)}
    edges = [
        (a, b)
        for a, b in pairs
        if not any(leq[(a, c)] and leq[(c, b)] for c in labels[pos[a] + 1 : pos[b]])
    ]
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
