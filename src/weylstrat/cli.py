"""Command-line surface.

Subcommands: subsystems, hasse, coeffs, dcoeffs, kblock, pq, gammax, verify.
Output ordering is fully specified (classes by cardinality then label, rows
lexicographic in Dynkin labels), so emission is byte-stable across runs.
Exit codes: 0 success, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction as Q
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import costrat, relcoeff, verify as verify_mod
from .lattice import (
    ExpKernel, TorusPoint, check_kernel, gamma_x, kernel_from_file, kernel_preset, pq_map,
)
from .rootsys import LieType, RootSystem, build_root_system
from .subsys import SubsystemClass, are_conjugate, build_poset, enumerate_classes, poset_to_dot
from .weyl import WeylGroup, generate_group


class UsageError(Exception):
    pass


def _build(args) -> Tuple[RootSystem, WeylGroup]:
    rs = build_root_system(LieType(args.family, args.rank))
    return rs, generate_group(rs)


def _find_class(classes: List[SubsystemClass], label: str) -> SubsystemClass:
    if label == "full":
        return max(classes, key=len)
    try:
        want = verify_mod.normalize_label(label)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for c in classes:
        if c.label == want:
            return c
    raise UsageError(
        f"unknown class label {label!r}; available: " + ", ".join(c.label for c in classes)
    )


def _kernel(rs, spec: str) -> Optional[ExpKernel]:
    if spec == "sc":
        return None  # all ratios are 1; the pipeline skips scaling entirely
    if spec == "so-odd":
        return kernel_preset(rs, "so-odd")
    return check_kernel(rs, kernel_from_file(spec))


def _class_table(args, rs: RootSystem, wg: WeylGroup):
    """The --class of the type and its C table under --kernel."""
    cls = _find_class(enumerate_classes(rs, wg), args.cls)
    kernel = _kernel(rs, args.kernel)
    ratios = None if kernel is None else pq_map(rs, kernel)
    return cls, relcoeff.coeff_table(rs, wg, cls, ratios)


def _root_ratios(rs, spec: str):
    """p/q of every root under --kernel; sc is spelled out, since every ratio is shown."""
    kernel = _kernel(rs, spec)
    return pq_map(rs, kernel_preset(rs, "sc") if kernel is None else kernel)


def _emit(args, payload: Optional[dict], csv_rows: Optional[Iterable], text: Iterable[str]):
    """Render the selected --format only and write it to --out or stdout.

    json needs a payload and csv needs rows; any other request, and either of
    those without its data, falls back to the text chunks.
    """
    if args.format == "json" and payload is not None:
        header = {"family": args.family, "rank": args.rank, "kernel": getattr(args, "kernel", "sc")}
        out = json.dumps({"group": header, **payload}, indent=1) + "\n"
    elif args.format == "csv" and csv_rows is not None:
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
    classes = enumerate_classes(*_build(args))
    payload = {
        "classes": [
            {
                "label": c.label,
                "size": len(c),
                "closed": c.representative.closed,
                "root_indices": sorted(c.representative.root_indices),
            }
            for c in classes
        ],
    }
    csv_rows = chain(
        [["label", "size", "closed"]], ([c.label, len(c), c.representative.closed] for c in classes)
    )
    text = (
        f"{c.label:16s} size={len(c):3d}  {'closed' if c.representative.closed else 'non-closed'}\n"
        for c in classes
    )
    _emit(args, payload, csv_rows, text)
    return 0


def cmd_hasse(args) -> int:
    if args.format == "csv":
        raise UsageError("hasse supports only dot and json output")
    rs, wg = _build(args)
    poset = build_poset(wg, enumerate_classes(rs, wg))
    payload = {
        "classes": [c.label for c in poset.classes],
        "hasse_edges": sorted(poset.hasse_edges),
    }
    _emit(args, payload, None, [poset_to_dot(poset)])
    return 0


def _emit_coeffs(args, with_d: bool) -> int:
    rs, wg = _build(args)
    cls, table = _class_table(args, rs, wg)
    columns = ["c_over_n"]
    lams = set(table.entries)
    if with_d:
        dt = costrat.d_coeffs(rs, wg, table)
        columns.append("d")
        lams |= set(dt.entries)
    rows = []
    for lam in sorted(lams):
        row = {"lambda": list(lam), "c_over_n": str(table.entries.get(lam, 0))}
        if with_d:
            row["d"] = str(dt.entries.get(lam, 0))
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
    if args.cutoff is None:
        raise UsageError("kblock requires --cutoff")
    try:
        cutoff = Q(args.cutoff)
    except ZeroDivisionError:
        raise UsageError(f"--cutoff {args.cutoff} is undefined") from None
    if cutoff < 0:
        raise UsageError(f"--cutoff must be non-negative, got {args.cutoff}")
    cfg = None if args.hbar is None else costrat.HbarConfig(args.hbar)
    rs, wg = _build(args)
    norm_sq = cutoff**2
    columns = costrat.kblock_columns(rs, norm_sq)  # before the tables, which may take long
    cls, table = _class_table(args, rs, wg)
    block = costrat.k_block(rs, wg, costrat.d_coeffs(rs, wg, table), norm_sq, columns)
    entries = []
    for (row, col), v in sorted(block.entries.items()):
        e = {"lambda_row": list(row), "lambda_col": list(col), "value": str(v)}
        if cfg is not None:
            ratio, _exp = costrat.norm_ratio(rs, cfg, row, col)
            e["value_with_norms"] = repr(ratio * float(v))
        entries.append(e)
    incomplete = sorted(block.incomplete_rows)
    payload = {
        "class": cls.label,
        "cutoff": str(cutoff),
        "entries": entries,
        "possibly_incomplete_rows": [list(l) for l in incomplete],
    }
    csv_rows = chain(
        [["lambda_row", "lambda_col", "value"]],
        ([_fmt_lambda(e["lambda_row"]), _fmt_lambda(e["lambda_col"]), e["value"]] for e in entries),
    )
    text = chain(
        (
            f"{_fmt_lambda(e['lambda_row']):>10s} {_fmt_lambda(e['lambda_col']):>10s} "
            f"{e['value']:>10s}\n"
            for e in entries
        ),
        [f"# possibly incomplete columns near cutoff: {' '.join(map(_fmt_lambda, incomplete))}\n"]
        if incomplete
        else [],
    )
    _emit(args, payload, csv_rows, text)
    return 0


def cmd_pq(args) -> int:
    rs = build_root_system(LieType(args.family, args.rank))
    ratios = _root_ratios(rs, args.kernel)
    rows = [
        {
            "root": [str(x) for x in rs.roots[i]],
            "labels": list(rs.root_labels(i)),
            "p": ratios[i].p,
            "q": ratios[i].q,
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
    parts: Dict[str, List[Q]] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"bad --point component {chunk!r}; expected A=... or B=...")
        key, vals = chunk.split("=", 1)
        key = key.strip().upper()
        if key not in ("A", "B"):
            raise UsageError(f"bad --point key {key!r}")
        if key in parts:
            raise UsageError(f"repeated --point key {key!r}")
        try:
            parts[key] = [Q(tok) for tok in vals.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational in --point: {exc}") from None
    a = parts.get("A", [Q(0)] * rank)
    b = parts.get("B", [Q(0)] * rank)
    if len(a) != rank or len(b) != rank:
        raise UsageError(f"--point coordinates must have length {rank}")
    return TorusPoint.make(a, b)


def cmd_gammax(args) -> int:
    if not args.point:
        raise UsageError("gammax requires --point")
    rs, wg = _build(args)
    ratios = _root_ratios(rs, args.kernel)
    point = _parse_point(args.point, rs.rank)
    sub = gamma_x(rs, ratios, point)
    label = next(
        (c.label for c in enumerate_classes(rs, wg) if are_conjugate(wg, sub, c.representative)),
        None,
    )
    payload = {
        "point": {"A": [str(x) for x in point.a_coords], "B": [str(x) for x in point.b_coords]},
        "root_indices": sorted(sub.root_indices),
        "roots": [[str(x) for x in rs.roots[i]] for i in sorted(sub.root_indices)],
        "closed": sub.closed,
        "class": label,
    }
    roots = " ".join("(" + ",".join(r) + ")" for r in payload["roots"])
    text = (
        f"indices: {payload['root_indices']}\nroots: {roots}\n"
        f"closed: {payload['closed']}\nclass: {label}\n"
    )
    _emit(args, payload, None, [text])  # no csv form: csv prints the text
    return 0


def cmd_verify(args) -> int:
    if args.corpus:
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
        sp.add_argument("--cutoff", default=None, help="norm cutoff on shifted weights")
        sp.add_argument("--hbar", type=float, default=None)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("pq", help="coprime p/q ratio per root for a kernel")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
