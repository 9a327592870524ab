"""weylstrat benchmark: CLI workloads run as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing. Every
command is a fresh ``python -m weylstrat.cli ...`` process with ``src`` on
PYTHONPATH, started only after the previous one exits, because CLI users pay
every cold cost (imports, Weyl group enumeration, module-level caches) on
every run. Warm in-process repeats would hide changes to those caches.

A run first measures set-up (fresh processes that import the CLI and build
the root system, Weyl group and subsystem classes of each type the workload
touches; at least ``SETUP_REPEATS`` of them, and more until ``SETUP_MIN_S``
seconds have passed), then runs passes over the workload's commands in a
seeded order, as many as end nearest to ``--seconds``. At least one pass
always runs. Each command's output is checked (see ``check``); a failed
check counts in ``failed`` and never stops the run.

``--trace 0`` reports the end-to-end metrics: medians over passes, and the
median set-up time. ``--trace 1`` runs each pass twice, untraced and then
through ``tracer.py``, requires the two stdouts to match byte for byte, and
reports per-layer metrics summed over the commands of a traced pass (median
over passes). One line per command goes to stdout; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"
TRACER = HERE / "tracer.py"
MARK = "#perfbench-trace "

SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
COMMAND_TIMEOUT_S = 150

SETUP_CODE = """
import sys
import weylstrat.cli
from weylstrat.rootsys import LieType, build_root_system
from weylstrat.subsys import enumerate_classes
from weylstrat.weyl import generate_group
for t in sys.argv[1:]:
    rs = build_root_system(LieType(t[0], int(t[1:])))
    enumerate_classes(rs, generate_group(rs))
"""


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    check: str  # "verify", "digest" or "gammax"

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _typed(cmd: str, family: str, rank: int, *rest: str) -> Tuple[str, ...]:
    return (cmd, "--family", family, "--rank", str(rank)) + rest


GOLDEN_GROUPS = ("SU(2)", "SU(3)", "SU(4)", "SU(5)", "Sp(2)", "Sp(3)", "Spin(7)", "Spin(8)")

# Torus-point coordinates for the seeded gammax probes: small denominators, so
# every probe lands on a subsystem class of its type.
POINT_COORDS = ("0", "1/2", "1/3", "2/3", "1/4", "3/4", "1/6", "5/6")
GAMMAX_TYPES = (("B", 4, "so-odd"), ("C", 3, "sc"), ("A", 3, "sc"))


def golden_verify(_rng: random.Random) -> List[Command]:
    return [Command(("verify", "--group", g), "verify") for g in GOLDEN_GROUPS]


def weyl_scaling(_rng: random.Random) -> List[Command]:
    fixed = [
        _typed("subsystems", "D", 6),
        _typed("hasse", "D", 5, "--format", "dot"),
        _typed("coeffs", "A", 5, "--class", "full"),
        _typed("coeffs", "B", 4, "--class", "full"),
        _typed("coeffs", "C", 4, "--class", "full"),
        _typed("coeffs", "B", 4, "--class", "0"),
    ]
    return [Command(a, "digest") for a in fixed]


def kblock_sweep(rng: random.Random) -> List[Command]:
    fixed = [
        _typed("kblock", "A", 3, "--class", "0", "--cutoff", "10", "--format", "json"),
        _typed("kblock", "C", 3, "--class", "C1+C2", "--cutoff", "10", "--format", "csv"),
        _typed("kblock", "B", 3, "--class", "A1", "--cutoff", "8"),
        _typed("kblock", "A", 2, "--class", "0", "--cutoff", "12", "--format", "csv"),
        _typed(
            "kblock", "B", 2, "--class", "0", "--cutoff", "16", "--kernel", "so-odd",
            "--hbar", "1.0", "--format", "json",
        ),
        _typed("coeffs", "B", 4, "--class", "A1", "--kernel", "so-odd"),
        _typed("pq", "B", 4, "--kernel", "so-odd", "--format", "csv"),
    ]
    probes = []
    for family, rank, kernel in GAMMAX_TYPES:
        point = "A=" + ",".join(rng.choice(POINT_COORDS) for _ in range(rank))
        probes.append(
            _typed("gammax", family, rank, "--kernel", kernel, "--point", point, "--format", "json")
        )
    return [Command(a, "digest") for a in fixed] + [Command(a, "gammax") for a in probes]


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random], List[Command]]
    types: Tuple[str, ...]  # types built during set-up


WORKLOADS: Dict[str, Workload] = {
    "golden-verify": Workload(golden_verify, ("A1", "A2", "A3", "A4", "C2", "C3", "B3", "D4")),
    "weyl-scaling": Workload(weyl_scaling, ("D6", "D5", "A5", "B4", "C4")),
    "kblock-sweep": Workload(kblock_sweep, ("A3", "C3", "B3", "A2", "B2", "B4")),
}


# -- child processes -----------------------------------------------------------


@dataclass
class Result:
    rc: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: Sequence[str]) -> Result:
    """Run one child to completion; its rusage comes from wait4 on its own pid."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        list(argv), cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        data: Dict[str, bytes] = {}

        def drain(key, stream):
            data[key] = stream.read()

        readers = [
            threading.Thread(target=drain, args=("out", proc.stdout)),
            threading.Thread(target=drain, args=("err", proc.stderr)),
        ]
        for r in readers:
            r.start()
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        for r in readers:
            r.join()
    return Result(
        proc.returncode,
        data["out"],
        data["err"],
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def cli_argv(cmd: Command) -> List[str]:
    return [sys.executable, "-m", "weylstrat.cli", *cmd.argv]


def traced_argv(cmd: Command, cmd_id: int) -> List[str]:
    return [sys.executable, str(TRACER), str(cmd_id), *cmd.argv]


def check(cmd: Command, res: Result, references: Dict[str, str]) -> bool:
    """The golden corpus judges verify; fixed commands match a recorded digest;
    seeded gammax probes must give JSON naming a subsystem class."""
    if res.rc != 0:
        return False
    if cmd.check == "verify":
        return res.out.decode().splitlines()[-1:] == ["OK"]
    if cmd.check == "gammax":
        try:
            return json.loads(res.out)["class"] is not None
        except (ValueError, KeyError, TypeError):
            return False
    return hashlib.sha256(res.out).hexdigest() == references.get(cmd.key)


# -- metrics -------------------------------------------------------------------

# The end-to-end metric each layer metric should move, and where:
#   rootsys.build_s, rootsys.labels_norm_sq.calls: cpu_s on golden-verify.
#   repthy.weight_system_s/.calls/.distinct, repthy.candidates: wall_s on
#     golden-verify; cmd_s_geomean on kblock-sweep (cold path).
#   repthy.dominant_labels_within_s: kblock-sweep.
#   weyl.generate_s, weyl.order, weyl.stabilizer_s, weyl.coset_reps_s,
#     weyl.cosets, weyl.compose.calls: wall_s on weyl-scaling;
#     predicted flat on golden-verify.
#   weyl.dominant_data.calls, weyl.orbit_labels.calls: kblock-sweep wall_s.
#   subsys.*: setup_s on every workload, and weyl-scaling wall_s.
#   relcoeff.*: weyl-scaling and kblock-sweep wall_s, and peak_rss_mb.
#   costrat.*: kblock-sweep. lattice.*: kblock-sweep, a negligible share.
#   verify.*: golden-verify. cli.self_s, cli.out_bytes: kblock-sweep
#     cmd_s_geomean. trace.overhead_s: traced minus untraced pass wall time.

# per-layer time metric -> (span name, self time only)
SPAN_TIMES = {
    "rootsys.build_s": ("rootsys.build", False),
    "repthy.weight_system_s": ("repthy.weight_system", False),
    "repthy.dominant_labels_within_s": ("repthy.dominant_labels_within", False),
    "weyl.generate_s": ("weyl.generate", False),
    "weyl.stabilizer_s": ("weyl.stabilizer", False),
    "weyl.coset_reps_s": ("weyl.coset_reps", False),
    "subsys.classes_s": ("subsys.classes", False),
    "subsys.canonical_key_s": ("subsys.canonical_key", False),
    "subsys.poset_s": ("subsys.poset", False),
    "relcoeff.subset_sums_s": ("relcoeff.subset_sums", False),
    "relcoeff.symmetrize_s": ("relcoeff.symmetrize", False),
    "relcoeff.coeff_table_self_s": ("relcoeff.coeff_table", True),
    "costrat.d_coeffs_self_s": ("costrat.d_coeffs", True),
    "costrat.k_block_s": ("costrat.k_block", False),
    "lattice.pq_map_s": ("lattice.pq_map", False),
    "lattice.gamma_x_s": ("lattice.gamma_x", False),
    "verify.diff_self_s": ("verify.diff", True),
    "cli.self_s": ("cli.cmd", True),
}

# counters the tracer keeps; each repeats exactly between traced runs
COUNTS = (
    "rootsys.labels_norm_sq.calls",
    "repthy.weight_system.calls",
    "repthy.weight_system.distinct",
    "repthy.candidates",
    "weyl.order",
    "weyl.cosets",
    "weyl.compose.calls",
    "weyl.dominant_data.calls",
    "weyl.orbit_labels.calls",
    "subsys.class_leq.calls",
    "relcoeff.support",
    "costrat.k_block.entries",
    "verify.mismatches",
)


def span_times(spans: List[dict]) -> Dict[str, float]:
    """Inclusive and self seconds per span name for one command.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through a wrapped binding is not counted twice. Self
    time is a span's duration minus the part its children cover; spans come
    from one thread and nest, so the children are disjoint and their
    durations add up to that part.
    """
    by_id = {s["id"]: s for s in spans}
    child_cover: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_cover[s["parent"]] = child_cover.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: Dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        self_key = s["name"] + "#self"
        out[self_key] = out.get(self_key, 0.0) + dur - child_cover.get(s["id"], 0.0)
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out[s["name"]] = out.get(s["name"], 0.0) + dur
    return out


def end_to_end(rows: List[Result]) -> Dict[str, float]:
    walls = [r.wall_s for r in rows]
    return {
        "cpu_s": sum(r.cpu_s for r in rows),
        "cmd_s_geomean": math.exp(statistics.fmean(math.log(w) for w in walls)),
        "peak_rss_mb": max(r.rss_mb for r in rows),
    }


def per_layer(traces: List[dict], outputs: List[bytes]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    counts: Dict[str, float] = {name: 0 for name in COUNTS}
    for trace in traces:
        for key, val in span_times(trace["spans"]).items():
            totals[key] = totals.get(key, 0.0) + val
        for name in COUNTS:
            counts[name] += trace["counts"].get(name, 0)
    out = {
        metric: totals.get(span + "#self" if own else span, 0.0)
        for metric, (span, own) in SPAN_TIMES.items()
    }
    out.update(counts)
    out["cli.out_bytes"] = sum(len(o) for o in outputs)
    return out


# -- runs ----------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.rng = random.Random(seed)
        self.workload = WORKLOADS[workload]
        self.commands = self.workload.make(self.rng)
        self.trace = trace
        self.references = json.loads(REFERENCES.read_text())
        self.attempted = 0
        self.failed = 0

    def _record(self, label: str, pass_no: int, cmd: Command, res: Result, ok: bool):
        self.attempted += 1
        self.failed += not ok
        print(
            f"{label}\t{pass_no}\t{res.wall_s:.4f}\t{res.cpu_s:.4f}\t{res.rss_mb:.1f}\t"
            f"{'ok' if ok else 'FAIL rc=%d' % res.rc}\t{cmd.key}",
            flush=True,
        )

    def setup(self) -> float:
        walls: List[float] = []
        start = time.perf_counter()
        while len(walls) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
            res = spawn([sys.executable, "-c", SETUP_CODE, *self.workload.types])
            if res.rc != 0:
                raise SystemExit("set-up failed:\n" + res.err.decode(errors="replace"))
            walls.append(res.wall_s)
        return statistics.median(walls)

    def one_pass(self, pass_no: int) -> Dict[str, float]:
        order = list(self.commands)
        self.rng.shuffle(order)
        t0 = time.perf_counter()
        outputs: Dict[Command, Result] = {}
        for cmd in order:
            outputs[cmd] = res = spawn(cli_argv(cmd))
            self._record("cmd", pass_no, cmd, res, check(cmd, res, self.references))
        metrics = end_to_end(list(outputs.values()))
        metrics["wall_s"] = time.perf_counter() - t0
        if not self.trace:
            return metrics
        t0 = time.perf_counter()
        traces, outs = [], []
        for cmd_id, cmd in enumerate(order):
            res = spawn(traced_argv(cmd, cmd_id))
            _err, sep, payload = res.err.decode(errors="replace").rpartition(MARK)
            plain = outputs[cmd]
            ok = bool(sep) and res.rc == plain.rc and res.out == plain.out
            self._record("traced", pass_no, cmd, res, ok)
            if ok:
                traces.append(json.loads(payload))
                outs.append(res.out)
        layers = per_layer(traces, outs)
        layers["trace.overhead_s"] = time.perf_counter() - t0 - metrics["wall_s"]
        return layers

    def measure(self, seconds: float) -> Dict[str, float]:
        setup_s = None if self.trace else self.setup()
        passes: List[Dict[str, float]] = []
        start = time.perf_counter()
        while True:
            passes.append(self.one_pass(len(passes)))
            elapsed = time.perf_counter() - start
            # another pass would end further from `seconds` than this one did
            if elapsed + elapsed / len(passes) / 2 >= seconds:
                break
        metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        if setup_s is not None:
            metrics["setup_s"] = setup_s
        return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "weylstrat" / "cli.py").is_file():
        print(f"error: no weylstrat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    run = Run(args.workload, args.seed, bool(args.trace))
    metrics = run.measure(args.seconds)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
