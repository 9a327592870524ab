"""Run one weylstrat CLI command with spans and counters around each layer.

    PYTHONPATH=src python3 perfbench/tracer.py CMD_ID ARGV...

The command runs through ``weylstrat.cli.run(ARGV)`` in this fresh process.
Before it starts, every binding of the traced functions is replaced by a
wrapper: the defining module's attribute, each ``from``-import of it in the
other ``weylstrat`` modules (``cli.py`` and ``verify.py`` import most of
them), and the class attribute for methods. Nothing under ``src/`` changes.
The bindings are restored when the command returns.

Spans and counts stay in memory and are written once, as the last line of
stderr after ``MARK``, so stdout carries exactly the command's own output.
Each span is ``{"id", "name", "parent", "cmd", "start", "end"}``; ``parent``
is the id of the enclosing span (the program is single-threaded, so spans
nest) and ``cmd`` is CMD_ID.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import weylstrat
from weylstrat import cli, costrat, lattice, relcoeff, repthy, rootsys, subsys, verify, weyl

MARK = "#perfbench-trace "
MODULES = (weylstrat, cli, costrat, lattice, relcoeff, repthy, rootsys, subsys, verify, weyl)


class Tracer:
    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._weight_systems: set = set()
        self._restore: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapped(*args, **kwargs):
            rec = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "cmd": self.cmd_id,
                "start": time.perf_counter(),
                "end": None,
            }
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if after is not None:
                after(rec, args, result)
            return result

        return wrapped

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _rebind(self, owner, attr: str, wrapper):
        """Point every binding of owner.attr at wrapper(original)."""
        original = getattr(owner, attr)
        wrapped = wrapper(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod in MODULES
                for key, val in list(vars(mod).items())
                if val is original
            ]
        for obj, key in targets:
            self._restore.append((obj, key, original))
            setattr(obj, key, wrapped)

    def span(self, owner, attr: str, name: str, after=None):
        self._rebind(owner, attr, lambda fn: self._span(name, fn, after))

    def count(self, owner, attr: str, name: str):
        self._rebind(owner, attr, lambda fn: self._counter(name, fn))

    def restore(self):
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    # -- size hooks ----------------------------------------------------------

    def _add(self, name, size):
        def hook(_rec, _args, result):
            self.counts[name] += size(result)

        return hook

    def _weight_system(self, _rec, args, result):
        self._weight_systems.add((args[0].lie_type, result.highest))
        self.counts["repthy.weight_system.distinct"] = len(self._weight_systems)

    def _candidates(self, rec, _args, result):
        parent = rec["parent"]
        if parent is not None and self.spans[parent]["name"] == "repthy.weight_system":
            self.counts["repthy.candidates"] += len(result)

    def install(self):
        self.span(rootsys, "build_root_system", "rootsys.build")
        self.count(rootsys.RootSystem, "labels_norm_sq", "rootsys.labels_norm_sq")
        self.span(weyl, "generate_group", "weyl.generate", self._add("weyl.order", len))
        self.span(weyl.WeylGroup, "setwise_stabilizer", "weyl.stabilizer")
        self.span(
            weyl.WeylGroup, "coset_representatives", "weyl.coset_reps",
            self._add("weyl.cosets", len),
        )
        self.count(weyl.WeylGroup, "compose", "weyl.compose")
        self.count(weyl.WeylGroup, "dominant_data", "weyl.dominant_data")
        self.count(weyl.WeylGroup, "orbit_labels", "weyl.orbit_labels")
        self.span(subsys, "enumerate_classes", "subsys.classes")
        self.span(subsys, "canonical_key", "subsys.canonical_key")
        self.span(subsys, "build_poset", "subsys.poset")
        self.count(subsys, "class_leq", "subsys.class_leq")
        self.span(repthy, "dominant_weight_system", "repthy.weight_system", self._weight_system)
        self.span(
            repthy, "dominant_labels_within", "repthy.dominant_labels_within", self._candidates
        )
        self.span(
            relcoeff, "subset_sums", "relcoeff.subset_sums", self._add("relcoeff.support", len)
        )
        self.span(relcoeff, "symmetrize", "relcoeff.symmetrize")
        self.span(relcoeff, "coeff_table", "relcoeff.coeff_table")
        self.span(costrat, "d_coeffs", "costrat.d_coeffs")
        self.span(
            costrat, "k_block", "costrat.k_block",
            self._add("costrat.k_block.entries", lambda b: len(b.entries)),
        )
        self.span(lattice, "pq_map", "lattice.pq_map")
        self.span(lattice, "gamma_x", "lattice.gamma_x")
        self.span(
            verify, "verify_group", "verify.diff", self._add("verify.mismatches", lambda r: len(r[0]))
        )
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            self.span(cli, attr, "cli.cmd")


def main(argv) -> int:
    tracer = Tracer(int(argv[0]))
    tracer.install()
    try:
        code = cli.run(argv[1:])
    finally:
        tracer.restore()
    sys.stdout.flush()
    payload = {"spans": tracer.spans, "counts": dict(tracer.counts)}
    sys.stderr.write("\n" + MARK + json.dumps(payload, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
