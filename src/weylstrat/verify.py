"""Golden-table verification: recompute every table entry and diff.

The D4 tables need one extra step: the three outer nodes of the diagram can
be numbered in any order, and the numbering moves both the label strings and
which of the two twelve-root classes is called A3 versus D3. The class-0
tables are invariant under diagram automorphisms, so the trivial class cannot
tell the numberings apart: each fork permutation is diffed over every column,
and the first with no mismatch (else the one with the fewest) is reported.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction as Q
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .relcoeff import CoeffTable, coeff_table
from .rootsys import Labels, LieType, build_root_system
from .subsys import enumerate_classes, normalize_label
from .weyl import generate_group

GROUP_FILES = {
    "SU(2)": "su2.json",
    "SU(3)": "su3.json",
    "SU(4)": "su4.json",
    "SU(5)": "su5.json",
    "Sp(2)": "sp2.json",
    "Sp(3)": "sp3.json",
    "Spin(7)": "spin7.json",
    "Spin(8)": "spin8.json",
}


@dataclass(frozen=True)
class Mismatch:
    group: str
    class_label: str
    lam: Labels
    column: str  # "c" or "d"
    expected: str
    got: str


def load_corpus(name: Optional[str] = None) -> List[dict]:
    names = [name] if name else list(GROUP_FILES)
    out = []
    for n in names:
        if n not in GROUP_FILES:
            raise ValueError(f"unknown group {n!r}; expected one of {sorted(GROUP_FILES)}")
        path = resources.files("weylstrat").joinpath("golden", GROUP_FILES[n])
        out.append(json.loads(path.read_text()))
    return out


def computed_tables(family: str, rank: int, class_labels: Sequence[str]) -> Dict[str, CoeffTable]:
    """One table per class label: its C entries and its D values."""
    wg = generate_group(build_root_system(LieType(family, rank)))
    classes = {c.label: c for c in enumerate_classes(wg.rs, wg)}
    for label in class_labels:
        if normalize_label(label) not in classes:
            raise ValueError(f"{label!r} is not a subsystem class of {wg.rs.lie_type}")
    return {label: coeff_table(wg, classes[normalize_label(label)]) for label in class_labels}


def _fork_permutations(family: str, rank: int) -> List[Tuple[int, ...]]:
    """Label permutations induced by diagram automorphisms permuting fork nodes."""
    if family == "D" and rank == 4:
        perms = []
        for p in itertools.permutations((0, 2, 3)):
            full = list(range(4))
            for src, dst in zip((0, 2, 3), p):
                full[src] = dst
            perms.append(tuple(full))
        return perms
    if family == "D":
        swap = list(range(rank))
        swap[rank - 2], swap[rank - 1] = swap[rank - 1], swap[rank - 2]
        return [tuple(range(rank)), tuple(swap)]
    return [tuple(range(rank))]


def _permute(lam: Sequence[int], perm: Tuple[int, ...]) -> Labels:
    # perm maps our node positions to table node positions
    out = [0] * len(lam)
    for src, dst in enumerate(perm):
        out[dst] = lam[src]
    return tuple(out)


def _column_diff(
    group: str,
    corpus_label: str,
    column: int,
    corpus_rows: Dict[Labels, list],
    table_entries: Dict[Labels, int],
    perm: Tuple[int, ...],
) -> List[Mismatch]:
    """Diff one class column of parsed values; column 0 is the C values, 1 the D values.

    table_entries may leave out zero values; computed values with no corpus
    row are reported in lambda order.
    """
    kind = "c" if column == 0 else "d"
    bad = []
    seen = set()
    for lam, values in corpus_rows.items():
        expected = values[column]
        ours = _inverse_permute(lam, perm)
        got = table_entries.get(ours, 0)
        seen.add(ours)
        if expected != got:
            bad.append(Mismatch(group, corpus_label, lam, kind, str(expected), str(got)))
    for lam in sorted(table_entries):
        value = table_entries[lam]
        if lam not in seen and value:
            bad.append(
                Mismatch(group, corpus_label, _permute(lam, perm), kind, "absent", str(value))
            )
    return bad


def _inverse_permute(lam: Sequence[int], perm: Tuple[int, ...]) -> Labels:
    return tuple(lam[dst] for dst in perm)


def _parsed_rows(data) -> Dict[Labels, list]:
    """The corpus rows as {lambda: one [c, d] pair per class}, each value parsed once.

    A null value is 0. ValueError unless data has the keys, types and sizes of
    one group's corpus.
    """
    keys = {"group": str, "family": str, "rank": int, "classes": list, "rows": list}
    if type(data) is not dict or any(type(data.get(k)) is not t for k, t in keys.items()) or any(
        type(label) is not str for label in data["classes"]
    ):
        raise ValueError("corpus must be an object with string group and family, integer "
                         "rank, a list of class-label strings and a list of rows")
    rank, n_classes = data["rank"], len(data["classes"])
    rows: Dict[Labels, list] = {}
    for row in data["rows"]:
        lam, values = (row.get("lambda"), row.get("values")) if type(row) is dict else (None, None)
        if type(lam) is not list or len(lam) != rank or any(type(x) is not int for x in lam):
            raise ValueError(f"corpus row lambda {lam!r} is not a list of {rank} integers")
        if tuple(lam) in rows:
            raise ValueError(f"corpus row lambda {lam} appears more than once")
        pairs_ok = type(values) is list and len(values) == n_classes and all(
            type(pair) is list and len(pair) == 2 and all(v is None or type(v) is str for v in pair)
            for pair in values
        )
        if not pairs_ok:
            raise ValueError(f"corpus row {lam} needs one [c, d] pair of strings or nulls "
                             f"for each of the {n_classes} classes")
        rows[tuple(lam)] = [[_value(lam, v) for v in pair] for pair in values]
    return rows


def _value(lam: list, text: Optional[str]):
    """A corpus value: 0 for null, else its Fraction."""
    if text is None:
        return 0
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"corpus row {lam} value {text!r} is not a rational") from None


def verify_group(data: dict) -> Tuple[List[Mismatch], Tuple[int, ...]]:
    """Diff one group's tables; returns mismatches and the fork permutation used."""
    corpus_rows = _parsed_rows(data)
    group = data["group"]
    family, rank = data["family"], data["rank"]
    tables = computed_tables(family, rank, data["classes"])

    def diff_under(perm: Tuple[int, ...]) -> List[Mismatch]:
        bad: List[Mismatch] = []
        for ci, label in enumerate(data["classes"]):
            ct = tables[label]
            per_class = {lam: vals[ci] for lam, vals in corpus_rows.items()}
            bad += _column_diff(group, label, 0, per_class, ct.entries, perm)
            bad += _column_diff(group, label, 1, per_class, ct.dominant_values, perm)
        return bad

    best: Optional[Tuple[List[Mismatch], Tuple[int, ...]]] = None
    for p in _fork_permutations(family, rank):
        bad = diff_under(p)
        if not bad:
            return [], p
        if best is None or len(bad) < len(best[0]):
            best = (bad, p)
    return best
