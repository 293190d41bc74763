"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

- A tiny run of each workload in BENCHMARK.json, on two seeds, traced and
  untraced, prints every metric BENCHMARK.json names, with its unit.
- The checker accepts the real output of every job kind and rejects a copy
  with one value corrupted.
- On ``bigint-full`` the only failures are ``bell --max N`` jobs with
  N >= 1981, failing with exit code 2 (CPython's int-to-str digit limit).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import worker  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode:
        raise AssertionError("run.py exited %d: %s" % (out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def corrupt(text: str) -> str:
    """Change the leading digit of one checked value in a job's output."""
    lines = text.splitlines(keepends=True)
    if len(lines) > 1 and "," in lines[-1]:  # CSV: the second field of the last row
        head, rest = lines[-1].split(",", 1)
        return "".join(lines[:-1]) + head + "," + _bump(rest)
    if len(lines) == 2:  # fit: a coefficient in the JSON line
        return lines[0] + _bump(lines[1])
    return _bump(text)


def _bump(text: str) -> str:
    m = re.search(r"\d", text)
    return text[:m.start()] + str((int(m.group()) + 1) % 10) + text[m.end():]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in self.spec["workloads"]:
            for seed in (1, 2):
                for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w["name"], seed=seed, trace=trace):
                        result = bench(w["name"], seed, trace)
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        want = {m["name"]: m["unit"] for m in self.spec[key]}
                        got = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(got, want)

    def test_checker_rejects_corrupted_output(self):
        checker = checks.Checker(SRC)
        sys.path.insert(0, SRC)
        from partstats import cli, statistics

        workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-selftest-")
        try:
            seen = set()
            for w in self.spec["workloads"]:
                for job in (j for r in jobs.make_plan(w["name"], 3, workdir, tiny=True, rounds=2) for j in r):
                    kind = job["check"]["kind"]
                    if kind == "bell":
                        kind += "-mod" if job["check"]["mod"] else "-exact"
                    if kind in seen:
                        continue
                    seen.add(kind)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = worker.run_job(job, cli, statistics)
                    with self.subTest(kind=kind):
                        self.assertIsNone(checker.check(job, rc, err.getvalue(), out.getvalue().encode()))
                        bad = corrupt(out.getvalue())
                        self.assertNotEqual(bad, out.getvalue())
                        self.assertIsNotNone(checker.check(job, rc, err.getvalue(), bad.encode()))
            self.assertEqual(seen, {"aggregate", "product", "eval", "fit_pattern", "dist", "moments",
                                    "fit_target", "bell-exact", "bell-mod", "asym"})
        finally:
            shutil.rmtree(workdir)

    def test_bigint_full_fails_only_on_the_digit_limit(self):
        result = bench("bigint-full", 1, 0)
        with open(os.path.join(ROOT, ".perfbench-results", "bigint-full-seed1-trace0.json")) as fh:
            records = json.load(fh)["jobs"]
        defect = [r for r in records if r["job"][:2] == ["bell", "--max"] and len(r["job"]) == 3
                  and int(r["job"][2]) > jobs.BELL_STR_LIMIT_N]
        self.assertTrue(defect)
        failed = [r for r in records if r["failure"]]
        self.assertEqual(result["failed"], len(failed))
        self.assertLessEqual({r["id"] for r in failed}, {r["id"] for r in defect})
        for r in failed:
            self.assertIn("exit code 2", r["failure"])
            self.assertIn("4300", r["failure"])


if __name__ == "__main__":
    unittest.main()
