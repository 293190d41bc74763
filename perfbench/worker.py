"""Benchmark worker: replays a job plan in a fresh interpreter.

Usage: python3 worker.py PLAN.json

The plan names the ``src`` directory to import partstats from, the rounds of
jobs, a time budget in seconds (or null to run every round) and whether to
trace. After each job the worker writes one JSON header line and the job's
captured stdout to its stdout, then waits for one line on stdin before the
next job, so that the checks in run.py never overlap a timed job. The last
header carries ``"done": true`` with the loop time and peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_job(job, cli, statistics) -> int:
    if job["kind"] == "cli":
        return cli.run(job["argv"])
    try:
        (name_a, params_a), (name_b, params_b) = job["a"], job["b"]
        f = statistics.builtin(name_a, **params_a) * statistics.builtin(name_b, **params_b)
        sys.stdout.write("%s\n" % statistics.aggregate(f, job["n"]))
        return 0
    except Exception as e:  # same contract as the CLI: an internal error exits 2
        print("internal error: %s" % e, file=sys.stderr)
        return 2


def main() -> None:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    src = os.path.abspath(plan["src"])
    sys.path.insert(0, src)
    import partstats
    from partstats import cli, statistics

    if not os.path.abspath(partstats.__file__).startswith(src + os.sep):
        raise SystemExit("partstats was imported from %s, not %s" % (partstats.__file__, src))
    tracer = None
    if plan["spans_path"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(partstats)
    channel, acks = sys.stdout.buffer, sys.stdin
    loop_s, rounds = 0.0, 0
    for jobs in plan["rounds"]:
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.begin_job(job["id"])
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_job(job, cli, statistics)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_job()
            loop_s += dt
            payload = out.getvalue().encode()
            header = {"id": job["id"], "rc": rc, "dt": dt, "len": len(payload), "err": err.getvalue()[-2000:]}
            channel.write(json.dumps(header).encode() + b"\n" + payload)
            channel.flush()
            if not acks.readline():
                return  # run.py has gone
        rounds += 1
        if plan["seconds"] is not None and loop_s >= plan["seconds"]:
            break
    if tracer:
        tracer.dump(plan["spans_path"])
    done = {"done": True, "rounds": rounds, "loop_s": loop_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    channel.write(json.dumps(done).encode() + b"\n")
    channel.flush()


if __name__ == "__main__":
    main()
