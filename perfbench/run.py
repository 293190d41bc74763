"""Seeded end-to-end benchmark of the partstats CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enumerate|exact \\
        --seed N --seconds S --trace 0|1 [--tiny]

BENCHMARK.json names ``enumerate`` and ``exact``; ``exact`` runs the jobs of
``exponents`` and ``bigint`` together (see jobs.py), and those two can also
be run on their own.

Load model: a closed loop with one client. The jobs of a seeded plan (see
jobs.py) run one after another in one fresh worker interpreter per run, each
as one ``partstats.cli.run(argv)`` call with stdout captured, except the
product job, which calls the library. Whole rounds run until the jobs have
taken ``--seconds`` in total. After each job the worker waits while this process
checks the output (checks.py), so checking never overlaps a timed job.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the loop with
spans around every partstats module (tracer.py), then replays the same rounds
untraced in a fresh worker for ``trace.overhead_ratio``, and prints the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
repeat the metrics for people. Per-job records (with a sha256 of each job's
stdout, to compare two commits byte for byte) go to
``.perfbench-results/<workload>-seed<seed>-trace<t>.json``.

The workload ``bigint-full`` is not in BENCHMARK.json: it is ``bigint`` with
``bell --max N`` up to N = 2500, where partstats 1.0.0 exits 2 for N >= 1981
(CPython's 4300-digit limit on int-to-str conversion). Its failed jobs count
that defect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402

SETUP_SAMPLES = 15
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import partstats.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t0)"
)
DEADLINE_S = 170
MODULES = ("partitions", "statistics", "recursions", "exactnum", "shifted_bell", "asymptotics", "cli")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env(src: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # keep CPython's default limit
    env["PYTHONPATH"] = src
    return env


def setup_once(src: str) -> float:
    """Seconds, in a fresh interpreter, to import partstats and build the CLI parser."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=worker_env(src),
                         capture_output=True, text=True, timeout=60)
    if out.returncode:
        raise BenchError("importing partstats failed: %s" % out.stderr.strip()[-500:])
    return float(out.stdout)


def drive(plan: dict, workdir: str, name: str, on_result, started: float) -> dict:
    """Run one worker over ``plan``; ``on_result(header, payload)`` sees every job."""
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path], cwd=ROOT,
                            env=worker_env(plan["src"]), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    done = None
    try:
        while True:
            line = proc.stdout.readline()
            if not line:
                break
            header = json.loads(line)
            if header.get("done"):
                done = header
                break
            on_result(header, proc.stdout.read(header["len"]))
            if time.monotonic() - started > DEADLINE_S:
                raise BenchError("run exceeded %d s" % DEADLINE_S)
            proc.stdin.write(b"\n")
            proc.stdin.flush()
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if done is None or proc.returncode:
        raise BenchError("worker %s exited %s before finishing" % (name, proc.returncode))
    return done


def tail(latencies: list):
    """(value, percentile, samples beyond): the highest percentile with at least
    ten samples beyond it, by nearest rank; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def run(args) -> dict:
    started = time.monotonic()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "partstats", "__init__.py")):
        raise BenchError("no partstats sources under %s" % src)
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return _run(args, src, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, src, workdir, started) -> dict:
    # setup_s is the median of SETUP_SAMPLES fresh imports taken between jobs,
    # spread over the loop, so that they see the same machine as the jobs do
    setup_times = []
    next_setup = [0.0, args.seconds / SETUP_SAMPLES]  # loop time so far, time of the next sample
    if not args.trace:
        setup_once(src)  # the first import may compile bytecode
    rounds = jobs.make_plan(args.workload, args.seed, workdir, tiny=args.tiny)
    by_id = {job["id"]: job for jobs_ in rounds for job in jobs_}
    checker = checks.Checker(src)
    verdicts = {}  # (check spec, sha256) -> reason; repeated outputs are checked once
    records = []

    def on_result(header, payload):
        job = by_id[header["id"]]
        sha = hashlib.sha256(payload).hexdigest()
        key = (json.dumps(job["check"], sort_keys=True), header["rc"], sha)
        if key not in verdicts:
            verdicts[key] = checker.check(job, header["rc"], header["err"], payload)
        records.append({"id": job["id"], "job": job.get("argv") or [job["a"], job["b"], job["n"]],
                        "rc": header["rc"], "latency_s": header["dt"], "bytes": len(payload),
                        "sha256": sha, "failure": verdicts[key]})
        next_setup[0] += header["dt"]
        if not args.trace and next_setup[0] >= next_setup[1] and len(setup_times) < SETUP_SAMPLES:
            setup_times.append(setup_once(src))  # the worker waits for our reply meanwhile
            next_setup[1] += args.seconds / SETUP_SAMPLES

    spans_path = os.path.join(workdir, "spans.json") if args.trace else None
    plan = {"src": src, "rounds": rounds, "seconds": args.seconds, "spans_path": spans_path}
    done = drive(plan, workdir, "measured", on_result, started)
    while not args.trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_once(src))
    attempted = len(records)
    failed = sum(1 for r in records if r["failure"])
    correct = failed == 0
    latencies = [r["latency_s"] for r in records]
    tail_s, tail_pct, beyond = tail(latencies)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": done["rounds"], "loop_s": done["loop_s"], "fail_ratio": failed / attempted,
               "job_tail_percentile": tail_pct, "job_tail_beyond": beyond}
    if args.trace:
        replayed = []
        replay = dict(plan, rounds=rounds[:done["rounds"]], seconds=None, spans_path=None)
        untraced = drive(replay, workdir, "replay",
                         lambda header, payload: replayed.append(hashlib.sha256(payload).hexdigest()), started)
        if replayed != [r["sha256"] for r in records]:
            correct = False
            summary["replay"] = "traced and untraced outputs differ"
        with open(spans_path) as fh:
            spans = json.load(fh)
        metrics = per_layer(spans, records, done["loop_s"] / untraced["loop_s"])
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (attempted / done["loop_s"], "1/s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (done["maxrss_kb"] / 1024.0, "MiB"),
            "ok_ratio": ((attempted - failed) / attempted, "1"),
        }
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_dir = os.path.join(ROOT, ".perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(dict(summary, jobs=records), fh, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": summary["metrics"], "summary": summary}


def per_layer(spans: dict, records: list, overhead_ratio: float) -> dict:
    self_s, calls = tracer.layer_metrics(spans["records"])
    c = spans["counters"]
    job_total = sum(r[tracer.TOTAL] for r in spans["records"] if r[tracer.NAME] == "job")
    occurrences = calls["statistics.occurrences"]
    bell_calls = calls["exactnum.bell"]
    metrics = {
        "partitions.enumerate.items": (c.get("partitions.enumerate.items", 0), "count"),
        "partitions.enumerate.self_s": (self_s["partitions.enumerate"], "s"),
        "partitions.parse.self_s": (self_s["partitions.parse"], "s"),
        "statistics.aggregate.calls": (calls["statistics.aggregate"], "count"),
        "statistics.aggregate.self_s": (self_s["statistics.aggregate"], "s"),
        "statistics.occurrences.calls": (occurrences, "count"),
        "statistics.occurrences.found": (c.get("statistics.occurrences.found", 0), "count"),
        "statistics.occurrences.hit_ratio": (c.get("statistics.occurrences.hits", 0) / occurrences
                                             if occurrences else 0.0, "1"),
        "statistics.occurrences.self_s": (self_s["statistics.occurrences"], "s"),
        "statistics.evaluate.self_s": (self_s["statistics.evaluate"], "s"),
        "statistics.value.self_s": (self_s["statistics.value"], "s"),
        "statistics.merge.terms": (c.get("statistics.merge.terms", 0), "count"),
        "statistics.merge.self_s": (self_s["statistics.merge"], "s"),
        "statistics.parse.self_s": (self_s["statistics.parse"], "s"),
        "recursions.dim_dist.self_s": (self_s["recursions.dim_dist"], "s"),
        "recursions.int_dist.self_s": (self_s["recursions.int_dist"], "s"),
        "recursions.dim_moments.self_s": (self_s["recursions.dim_moments"], "s"),
        "recursions.int_moments.self_s": (self_s["recursions.int_moments"], "s"),
        "recursions.out_cells": (c.get("recursions.out_cells", 0), "count"),
        "recursions.max_bits": (c.get("recursions.max_bits", 0), "bit"),
        "exactnum.bell.calls": (bell_calls, "count"),
        "exactnum.bell.hit_ratio": (c.get("exactnum.bell.hits", 0) / bell_calls if bell_calls else 0.0, "1"),
        "exactnum.bell.max_index": (c.get("exactnum.bell.max_index", 0), "count"),
        "exactnum.bell.self_s": (self_s["exactnum.bell"], "s"),
        "exactnum.bell_mod.self_s": (self_s["exactnum.bell_mod"], "s"),
        "shifted_bell.fit.calls": (calls["shifted_bell.fit"], "count"),
        "shifted_bell.fit.unknowns": (c.get("shifted_bell.fit.unknowns", 0), "count"),
        "shifted_bell.fit.self_s": (self_s["shifted_bell.fit"], "s"),
        "shifted_bell.evaluate.self_s": (self_s["shifted_bell.evaluate"], "s"),
        "asymptotics.self_s": (self_s["asymptotics"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.bytes_out": (sum(r["bytes"] for r in records), "B"),
        "cli.exit2": (sum(1 for r in records if r["rc"] == 2), "count"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }
    # share of job time whose self time lies in each module; "bench" is the
    # job span's own self time (capturing output, dispatch)
    by_module = dict.fromkeys(MODULES + ("bench",), 0.0)
    for name, s in self_s.items():
        by_module["bench" if name == "job" else name.split(".")[0]] += s
    for module, s in by_module.items():
        metrics["share." + module] = (s / job_total if job_total else 0.0, "1")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for self-tests")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    s = result["summary"]
    print("workload %s seed %d trace %d: %d jobs in %d rounds, %d failed (fail_ratio %.4g), "
          "job_tail_s at p%.1f with %d beyond"
          % (s["workload"], s["seed"], s["trace"], result["attempted"], s["rounds"], result["failed"],
             s["fail_ratio"], s["job_tail_percentile"], s["job_tail_beyond"]))
    for name, m in result["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
