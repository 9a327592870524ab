"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench        # or: python3 perfbench/test_perfbench.py

No install step and no PYTHONPATH: the harness puts ``src`` on the path of
every child itself. The workload tests run each workload once in traced mode and
kblock-sweep twice more (about three minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run
from run import (
    COUNTS, HERE, MARK, ROOT, WORKLOADS, Command, cli_argv, span_times, spawn, traced_argv,
)

BENCHMARK = json.loads(run.BENCHMARK.read_text())


def clean_env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=clean_env(), capture_output=True, text=True, timeout=600,
    )


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


def trace_payload(res):
    _err, sep, payload = res.err.decode().rpartition(MARK)
    assert sep, res.err.decode()
    return json.loads(payload)


class SpanTimes(unittest.TestCase):
    def test_inclusive_and_self(self):
        def span(i, name, parent, start, end):
            return {"id": i, "name": name, "parent": parent, "cmd": 0, "start": start, "end": end}

        spans = [
            span(0, "a", None, 0.0, 10.0),
            span(1, "b", 0, 1.0, 4.0),
            span(2, "c", 0, 5.0, 6.0),
            span(3, "a", 2, 5.2, 5.5),
        ]
        t = span_times(spans)
        self.assertAlmostEqual(t["a"], 10.0)  # the nested "a" is not counted again
        self.assertAlmostEqual(t["a#self"], 6.0 + 0.3)
        self.assertAlmostEqual(t["b"], 3.0)
        self.assertAlmostEqual(t["c#self"], 0.7)


class Harness(unittest.TestCase):
    def test_children_import_weylstrat_from_src(self):
        res = spawn([sys.executable, "-c", "import weylstrat; print(weylstrat.__file__)"])
        self.assertEqual(res.rc, 0, res.err)
        self.assertEqual(Path(res.out.decode().strip()).parent, ROOT / "src" / "weylstrat")

    def test_tracer_matches_plain_stdout_and_counts_repeat(self):
        cmd = Command(("dcoeffs", "--family", "B", "--rank", "3", "--class", "A1"), "digest")
        plain = spawn(cli_argv(cmd))
        first, second = spawn(traced_argv(cmd, 0)), spawn(traced_argv(cmd, 0))
        self.assertEqual(plain.rc, 0)
        self.assertEqual(first.out, plain.out)
        self.assertEqual(second.out, plain.out)
        counts = trace_payload(first)["counts"]
        self.assertEqual(counts, trace_payload(second)["counts"])
        self.assertGreater(counts["repthy.weight_system.calls"], 0)
        self.assertGreater(counts["rootsys.labels_norm_sq.calls"], 0)

    def test_tracer_restores_every_binding(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import tracer
        finally:
            sys.path.remove(str(ROOT / "src"))
        owners = list(tracer.MODULES) + [
            tracer.rootsys.RootSystem, tracer.weyl.WeylGroup
        ]
        before = [dict(vars(o)) for o in owners]
        original = tracer.cli.build_root_system
        t = tracer.Tracer(0)
        t.install()
        self.assertIsNot(tracer.cli.build_root_system, original)
        self.assertIs(tracer.cli.build_root_system, tracer.rootsys.build_root_system)
        t.restore()
        for owner, snapshot in zip(owners, before):
            now = vars(owner)
            self.assertEqual(
                [k for k in snapshot if now.get(k) is not snapshot[k]], [], owner
            )

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "kblock-sweep", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Workloads(unittest.TestCase):
    def test_untraced_prints_every_end_to_end_metric(self):
        res = result_of(bench("--workload", "kblock-sweep", "--seed", "3", "--seconds", "1"))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), names("end_to_end"))

    def test_traced_stdout_identical_and_every_layer_metric_declared(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(WORKLOADS))
        traced = {}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
                traced[workload] = res = result_of(proc)
                # trace mode fails any command whose traced stdout differs from the plain one
                self.assertEqual(res["failed"], 0, proc.stdout)
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), names("per_layer"))
        # exact counts repeat; kblock-sweep is the workload whose seed also draws inputs
        again = result_of(
            bench("--workload", "kblock-sweep", "--seed", "3", "--seconds", "1", "--trace", "1")
        )
        for name in COUNTS:
            self.assertEqual(
                again["metrics"][name], traced["kblock-sweep"]["metrics"][name], name
            )

if __name__ == "__main__":
    unittest.main()
