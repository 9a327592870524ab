"""Command-line surface.

Subcommands: subsystems, hasse, coeffs, dcoeffs, kblock, pq, gammax, verify.
Output ordering is fully specified (classes by cardinality then label, rows
lexicographic in Dynkin labels), so emission is byte-stable across runs.
Exit codes: 0 success, 1 verification mismatch, 2 usage error.
Each subcommand imports the table, lattice and verify modules it runs when it
runs, and `_emit` loads csv, and json's string encoder, only for the format it
writes (json is read only by verify), so a command loads none that it does not
call. JSON output has the layout of json.dumps(obj, indent=1), written by
`_json`, which renders each label tuple once per depth.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from fractions import Fraction as Q
from functools import lru_cache, partial
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from .rootsys import LieType, build_root_system
from .subsys import RootSubsystem, build_poset, enumerate_classes, normalize_label, poset_to_dot
from .weyl import WeylGroup, generate_group

if TYPE_CHECKING:
    from .lattice import TorusPoint


def _build(args) -> WeylGroup:
    return generate_group(build_root_system(LieType(args.family, args.rank)))


def _find_class(classes: List[RootSubsystem], label: str) -> RootSubsystem:
    if label == "full":
        return max(classes, key=len)
    want = normalize_label(label)
    for c in classes:
        if c.label == want:
            return c
    raise ValueError(
        f"unknown class label {label!r}; available: " + ", ".join(c.label for c in classes)
    )


def _kernel_scales(rs, spec: str) -> List[int]:
    """q of every root under --kernel: a preset (sc, so-odd) or a kernel matrix file."""
    from .lattice import kernel_from_file, kernel_preset, pq_map

    kernel = kernel_preset(rs, spec) if spec in ("sc", "so-odd") else kernel_from_file(spec)
    return pq_map(rs, kernel)


def _class_table(args, wg: WeylGroup):
    """The --class of the type and its C table under --kernel."""
    from . import relcoeff

    cls = _find_class(enumerate_classes(wg.rs, wg), args.cls)
    return cls, relcoeff.coeff_table(wg, cls, _kernel_scales(wg.rs, args.kernel))


def _json(obj) -> str:
    """The text of json.dumps(obj, indent=1), for the values the CLI emits.

    Takes str, int, bool, None, dicts with str keys, and lists, tuples and
    iterators (generators, map, chain), each of the last three rendered as an
    array. Anything else raises TypeError, as json.dumps does: sets too, since
    their order is not fixed, and keys other than str, which the string
    encoder refuses. A tuple of plain ints, such as a label, is rendered once
    per depth and then looked up.
    """
    from json.encoder import encode_basestring_ascii as quote

    memo: Dict[tuple, str] = {}

    def render(o, depth: int) -> str:
        if type(o) is tuple and all(type(x) is int for x in o):
            key = (o, depth)
            text = memo.get(key)
            if text is None:
                text = memo[key] = array(o, depth)
            return text
        if isinstance(o, str):
            return quote(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, (list, tuple, Iterator)):
            return array(o, depth)
        if isinstance(o, dict):
            parts = [quote(k) + ": " + render(v, depth + 1) for k, v in o.items()]
            return join("{", parts, "}", depth)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def array(items, depth: int) -> str:
        return join("[", [render(v, depth + 1) for v in items], "]", depth)

    def join(open_: str, parts: List[str], close: str, depth: int) -> str:
        if not parts:
            return open_ + close
        inner = "\n" + " " * (depth + 1)
        # the brackets go on the end parts, so the joined text is never copied
        parts[0] = open_ + inner + parts[0]
        parts[-1] += "\n" + " " * depth + close
        return ("," + inner).join(parts)

    return render(obj, 0)


def _emit(args, payload: Optional[dict], csv_rows: Optional[Iterable], text: Iterable[str]):
    """Render the selected --format only and write it to --out or stdout.

    json needs a payload and csv needs rows; any other request, and either of
    those without its data, falls back to the text chunks. The output is
    rendered whole before anything is written, so an error leaves no output.
    """
    if args.format == "json" and payload is not None:
        header = {"family": args.family, "rank": args.rank, "kernel": getattr(args, "kernel", "sc")}
        out = _json({"group": header, **payload}) + "\n"
    elif args.format == "csv" and csv_rows is not None:
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        out = buf.getvalue()
    else:
        out = "".join(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _fmt_lambda(lam: Sequence[int]) -> str:
    return "".join(str(x) for x in lam) if all(0 <= x <= 9 for x in lam) else ",".join(map(str, lam))


# -- subcommands ---------------------------------------------------------------


def cmd_subsystems(args) -> int:
    wg = _build(args)
    classes = enumerate_classes(wg.rs, wg)
    payload = {
        "classes": [
            {
                "label": c.label,
                "size": len(c),
                "closed": c.closed,
                "root_indices": sorted(c.root_indices),
            }
            for c in classes
        ],
    }
    csv_rows = chain(
        [["label", "size", "closed"]], ([c.label, len(c), c.closed] for c in classes)
    )
    text = (
        f"{c.label:16s} size={len(c):3d}  {'closed' if c.closed else 'non-closed'}\n"
        for c in classes
    )
    _emit(args, payload, csv_rows, text)
    return 0


def cmd_hasse(args) -> int:
    if args.format == "csv":
        raise ValueError("hasse supports only dot and json output")
    wg = _build(args)
    poset = build_poset(enumerate_classes(wg.rs, wg))
    payload = {
        "classes": [c.label for c in poset.classes],
        "hasse_edges": sorted(poset.hasse_edges),
    }
    _emit(args, payload, None, [poset_to_dot(poset)])
    return 0


def _emit_coeffs(args, with_d: bool) -> int:
    wg = _build(args)
    cls, table = _class_table(args, wg)
    columns = ["c_over_n"]
    lams = set(table.entries)
    if with_d:
        from . import costrat

        dt = costrat.d_coeffs(wg.rs, table)
        columns.append("d")
        lams |= set(dt)
    rows = []
    for lam in sorted(lams):
        row = {"lambda": list(lam), "c_over_n": str(table.entries.get(lam, 0))}
        if with_d:
            row["d"] = str(dt.get(lam, 0))
        rows.append(row)
    width = 2 * args.rank + 2
    csv_rows = chain(
        [[f"lambda_{i+1}" for i in range(args.rank)] + columns],
        (r["lambda"] + [r[c] for c in columns] for r in rows),
    )
    text = chain(
        ["lambda".ljust(width) + "  ".join(c.rjust(10) for c in columns) + "\n"],
        (
            _fmt_lambda(r["lambda"]).ljust(width)
            + "  ".join(r[c].rjust(10) for c in columns)
            + "\n"
            for r in rows
        ),
    )
    _emit(args, {"class": cls.label, "entries": rows}, csv_rows, text)
    return 0


def cmd_coeffs(args) -> int:
    return _emit_coeffs(args, with_d=False)


def cmd_dcoeffs(args) -> int:
    return _emit_coeffs(args, with_d=True)


def cmd_kblock(args) -> int:
    from . import costrat

    if args.cutoff is None:
        raise ValueError("kblock requires --cutoff")
    try:
        cutoff = Q(args.cutoff)
    except ZeroDivisionError:
        raise ValueError(f"--cutoff {args.cutoff} is undefined") from None
    if cutoff < 0:
        raise ValueError(f"--cutoff must be non-negative, got {args.cutoff}")
    cfg = None if args.hbar is None else costrat.HbarConfig(args.hbar)
    wg = _build(args)
    rs = wg.rs
    norm_sq = cutoff**2
    columns = costrat.kblock_columns(rs, norm_sq)  # before the tables, which may take long
    cls, table = _class_table(args, wg)
    block = costrat.k_block(wg, table.dominant_values, norm_sq, columns)
    items = sorted(block.entries.items())
    incomplete = sorted(block.incomplete_columns)
    if cfg is None:
        entries = (
            {"lambda_row": row, "lambda_col": col, "value": str(v)} for (row, col), v in items
        )
    else:
        # every format computes the ratios, so each refuses an --hbar that overflows one
        norm = lru_cache(maxsize=None)(partial(costrat.shifted_norm_sq, rs))
        ratios = [costrat.hbar_ratio(cfg, norm(row), norm(col))[0] for (row, col), _ in items]
        entries = (
            {
                "lambda_row": row,
                "lambda_col": col,
                "value": str(v),
                "value_with_norms": repr(ratio * float(v)),
            }
            for ((row, col), v), ratio in zip(items, ratios)
        )
    payload = {
        "class": cls.label,
        "cutoff": str(cutoff),
        "entries": entries,
        "possibly_incomplete_rows": incomplete,
    }
    name = lru_cache(maxsize=None)(_fmt_lambda)
    csv_rows = chain(
        [["lambda_row", "lambda_col", "value"]],
        ([name(row), name(col), str(v)] for (row, col), v in items),
    )
    text = chain(
        (f"{name(row):>10s} {name(col):>10s} {v:>10d}\n" for (row, col), v in items),
        [f"# possibly incomplete columns near cutoff: {' '.join(map(name, incomplete))}\n"]
        if incomplete
        else [],
    )
    _emit(args, payload, csv_rows, text)
    return 0


def cmd_pq(args) -> int:
    rs = build_root_system(LieType(args.family, args.rank))
    scales = _kernel_scales(rs, args.kernel)
    rows = [
        {
            "root": [str(x) for x in rs.roots[i]],
            "labels": list(rs.root_labels(i)),
            "p": 1,  # p is 1: every kernel that pq_map accepts contains the coroot lattice
            "q": scales[i],
        }
        for i in range(len(rs.roots))
    ]
    csv_rows = chain(
        [["root", "p", "q"]], (["(" + ",".join(r["root"]) + ")", r["p"], r["q"]] for r in rows)
    )
    text = (f"({','.join(r['root'])})  p={r['p']} q={r['q']}\n" for r in rows)
    _emit(args, {"roots": rows}, csv_rows, text)
    return 0


def _parse_point(spec: str, rank: int) -> TorusPoint:
    from .lattice import TorusPoint

    parts: Dict[str, List[Q]] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad --point component {chunk!r}; expected A=... or B=...")
        key, vals = chunk.split("=", 1)
        key = key.strip().upper()
        if key not in ("A", "B"):
            raise ValueError(f"bad --point key {key!r}")
        if key in parts:
            raise ValueError(f"repeated --point key {key!r}")
        try:
            parts[key] = [Q(tok) for tok in vals.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational in --point: {exc}") from None
    if not parts:
        raise ValueError(f"--point {spec!r} has no A=... or B=... component")
    a = parts.get("A", [Q(0)] * rank)
    b = parts.get("B", [Q(0)] * rank)
    if len(a) != rank or len(b) != rank:
        raise ValueError(f"--point coordinates must have length {rank}")
    return TorusPoint.make(a, b)


def cmd_gammax(args) -> int:
    from .lattice import gamma_x

    rs = build_root_system(LieType(args.family, args.rank))
    scales = _kernel_scales(rs, args.kernel)
    point = _parse_point(args.point, rs.rank)
    sub = gamma_x(rs, scales, point)
    payload = {
        "point": {"A": [str(x) for x in point.a_coords], "B": [str(x) for x in point.b_coords]},
        "root_indices": sorted(sub.root_indices),
        "roots": [[str(x) for x in rs.roots[i]] for i in sorted(sub.root_indices)],
        "closed": sub.closed,
        "class": sub.label,
    }
    roots = " ".join("(" + ",".join(r) + ")" for r in payload["roots"])
    text = (
        f"indices: {payload['root_indices']}\nroots: {roots}\n"
        f"closed: {payload['closed']}\nclass: {sub.label}\n"
    )
    _emit(args, payload, None, [text])  # no csv form: csv prints the text
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    if args.corpus:
        import json

        if args.group:
            raise ValueError("--group selects from the built-in corpus; it does not go with --corpus")

        with open(args.corpus) as fh:
            groups = [json.load(fh)]
    else:
        groups = verify_mod.load_corpus(args.group)
    lines = []
    total_bad = 0
    for data in groups:
        bad, perm = verify_mod.verify_group(data)
        total_bad += len(bad)
        n_entries = sum(
            1 for r in data["rows"] for pair in r["values"] for v in pair if v is not None
        )
        status = "PASS" if not bad else "FAIL"
        note = "" if perm == tuple(range(data["rank"])) else f" (node permutation {perm})"
        lines.append(f"{status} {data['group']}: {n_entries} table entries{note}\n")
        for m in bad:
            lines.append(
                f"  mismatch group={m.group} class={m.class_label} lambda={_fmt_lambda(m.lam)} "
                f"column={m.column} expected={m.expected} got={m.got}\n"
            )
    lines.append(("OK" if not total_bad else f"{total_bad} MISMATCHES") + "\n")
    _emit(args, None, None, lines)  # the report is text in every --format
    return 0 if not total_bad else 1


# -- parser ---------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylstrat",
        description="Reflection-type decomposition data: subsystem classes, "
        "relation coefficients, costratification tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_type=True):
        if need_type:
            sp.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
            sp.add_argument("--rank", required=True, type=int)
        sp.add_argument("--format", default="text", choices=["json", "csv", "text", "dot"])
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("subsystems", help="list subsystem classes with closed flags")
    common(sp)
    sp.set_defaults(func=cmd_subsystems)

    sp = sub.add_parser("hasse", help="Hasse diagram of the class poset (DOT)")
    common(sp)
    sp.set_defaults(func=cmd_hasse)

    for name, fn, help_ in [
        ("coeffs", cmd_coeffs, "reduced relation coefficients of a class"),
        ("dcoeffs", cmd_dcoeffs, "reduced D coefficients (with the C column)"),
        ("kblock", cmd_kblock, "normalized K-matrix block within a norm cutoff"),
    ]:
        sp = sub.add_parser(name, help=help_)
        common(sp)
        sp.add_argument("--class", dest="cls", required=True, help='label like A1+B1, 0, or "full"')
        sp.add_argument("--kernel", default="sc", help="sc, so-odd, or a kernel matrix file")
        if name == "kblock":
            sp.add_argument("--cutoff", default=None, help="norm cutoff on shifted weights")
            sp.add_argument("--hbar", type=float, default=None)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("pq", help="integer q per root (p is 1) for a kernel")
    common(sp)
    sp.add_argument("--kernel", default="sc")
    sp.set_defaults(func=cmd_pq)

    sp = sub.add_parser("gammax", help="root subsystem fixing a rational torus point")
    common(sp)
    sp.add_argument("--kernel", default="sc")
    sp.add_argument("--point", required=True, help='e.g. "A=1/4,0" or "A=1/4,0;B=0,0"')
    sp.set_defaults(func=cmd_gammax)

    sp = sub.add_parser("verify", help="recompute the golden tables and diff")
    common(sp, need_type=False)
    sp.add_argument("--group", default=None, help="restrict to one group, e.g. SU(3)")
    sp.add_argument("--corpus", default=None, help="path to an alternative corpus JSON")
    sp.set_defaults(func=cmd_verify)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
