"""Benchmark for multiplex: three workloads, job-level metrics, layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectral-fp --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

One process, one client, no extra threads.  A run sets the workload up
several times (fresh import of `multiplex`, then generating and writing the
inputs) and reports the median as `setup_s`.  With `--trace 0` it then runs
the job list as a closed loop for `--seconds` and reports the end-to-end
metrics.  With `--trace 1` it runs a fixed prefix of the job list once with
wrappers installed around the package's public functions (tracing.py),
replays it without them, and reports the per-layer metrics.

Every job is checked; a failed job makes the result `correct: false`.
The last line of standard output is the result as one JSON object.
Details (per-job times and input sizes, the machine, the binding audit,
spans) are written under `.bench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import types
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
SETUP_REPEATS = 5
JOB_TIME_LIMIT_S = 60
HASH_SEED = "0"

# every module a job can reach; `generators` only builds inputs
MODULES = ("linalg", "bigraded", "signs", "reports", "twisted", "filtration",
           "spectral", "dainf", "filtered_ainf", "operadic", "generators",
           "io", "cli")

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"),
              ("jobs_ok_ratio", "ratio")]


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIME_LIMIT_S} s")


def fresh_import():
    """Import multiplex from the checkout with empty module-level state."""
    for name in [n for n in sys.modules
                 if n == "multiplex" or n.startswith("multiplex.")]:
        del sys.modules[name]
    importlib.import_module("multiplex")
    mods = {m: importlib.import_module("multiplex." + m) for m in MODULES}
    where = os.path.abspath(mods["cli"].__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"multiplex imported from {where}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "MULTIPLEX_THREADS": os.environ.get("MULTIPLEX_THREADS"),
    }


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten jobs beyond it
    (nearest-rank); the median when there are fewer than twenty jobs."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def load_digests(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh).get("workloads", {}).get(workload, {})


class Runner:
    def __init__(self, wl, seed: int, work: str):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.recorded = load_digests(wl.name, seed)
        self.seen: dict[str, str] = {}
        self.records: list[dict] = []

    def setup(self, repeats: int) -> tuple[list, list[float]]:
        times, jobs = [], None
        for _ in range(repeats):
            t0 = perf_counter()
            mx = fresh_import()
            jobs = self.wl.setup(mx, self.seed, self.work)
            times.append(perf_counter() - t0)
        return jobs, times

    def run_job(self, job, session, tracer=None) -> dict:
        if job.output and os.path.exists(job.output):
            os.remove(job.output)  # a stale file from an earlier pass
        signal.setitimer(signal.ITIMER_REAL, JOB_TIME_LIMIT_S)
        oc = None
        error = None
        if tracer is not None:
            tracer.begin_job(len(self.records))
        t0 = perf_counter()
        try:
            oc = self.wl.execute(job, session)
        except Exception as exc:  # a traceback is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                wall = tracer.end_job()
            signal.setitimer(signal.ITIMER_REAL, 0)
        reasons = [error] if error else []
        if oc is not None:
            reasons += self.wl.verify(job, oc, session)
            digest = oc.extra.get("digest")
            if digest is not None:
                want = self.recorded.get(job.id) or self.seen.get(job.id)
                if want is not None and want != digest:
                    reasons.append(f"digest {digest} != recorded {want}")
                self.seen.setdefault(job.id, digest)
        if wall > JOB_TIME_LIMIT_S:
            reasons.append("time limit exceeded")
        rec = {"id": job.id, "kind": job.kind, "wall_s": wall,
               "ok": not reasons, "why": reasons, **job.sizes,
               "arity": oc.extra.get("arity", 1) if oc else None,
               "out_bytes": oc.out_bytes if oc else None}
        self.records.append(rec)
        return rec

    def closed_loop(self, jobs, session, seconds: float):
        start = perf_counter()
        k = 0
        while True:
            self.run_job(jobs[k % len(jobs)], session)
            k += 1
            if perf_counter() - start >= seconds:
                break
        return perf_counter() - start


def end_to_end(records, setup_times) -> dict:
    walls = [r["wall_s"] for r in records]
    ok = sum(r["ok"] for r in records)
    p, tail = tail_percentile(walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": ok / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "jobs_ok_ratio": ok / len(records),
    }
    notes = {"tail_percentile": p, "jobs": len(walls)}
    return ({n: {"value": values[n], "unit": u} for n, u in END_TO_END},
            notes)


def run_untraced(wl, seed, seconds, work, record_digests=False):
    runner = Runner(wl, seed, work)
    jobs, setup_times = runner.setup(SETUP_REPEATS)
    mx = fresh_import()
    session = wl.open_session(mx, work)
    gc.collect()
    if record_digests:
        runner.recorded = {}
        for job in jobs:
            runner.run_job(job, session)
        loop_s = sum(r["wall_s"] for r in runner.records)
    else:
        loop_s = runner.closed_loop(jobs, session, seconds)
    metrics, notes = end_to_end(runner.records, setup_times)
    notes.update(loop_s=loop_s, setup_samples=setup_times)
    return runner, metrics, notes


def run_traced(wl, seed, work):
    from tracing import PREDICTIONS, AuditError, Tracer

    runner = Runner(wl, seed, work)
    jobs, _ = runner.setup(1)
    prefix = [j for j in jobs if j.instance < wl.trace_instances]

    mx = fresh_import()
    tracer = Tracer()
    problems = []
    try:
        tracer.install(vars(mx))
    except AuditError as exc:
        problems.append(str(exc))
    session = wl.open_session(mx, work)
    gc.collect()
    for job in prefix:
        runner.run_job(job, session, tracer)
    traced = runner.records
    traced_s = sum(r["wall_s"] for r in traced)

    replay = Runner(wl, seed, work)
    session = wl.open_session(fresh_import(), work)
    gc.collect()
    for job in prefix:
        replay.run_job(job, session)
    plain_s = sum(r["wall_s"] for r in replay.records)

    metrics = tracer.metrics(traced_s, traced_s / plain_s)
    problems += tracer.audit(wl.name)
    shares = tracer.shares(traced_s)
    purpose = purpose_checks(wl.name, tracer, shares)
    notes = {"traced_s": traced_s, "untraced_s": plain_s,
             "audit_problems": problems, "bindings": tracer.bindings,
             "self_share": dict(sorted(shares.items(),
                                       key=lambda kv: -kv[1])),
             "purpose": purpose, "predictions": PREDICTIONS,
             "replay_ok": all(r["ok"] for r in replay.records)}
    return runner, tracer, metrics, notes


def purpose_checks(name, tracer, shares) -> dict:
    """Whether the trace confirms why the workload exists (reported only:
    a later change may rightly shift the shares)."""
    calls, self_s = tracer.group_stats()
    layers = {g: s for g, s in self_s.items() if g != "job"}
    top = max(layers, key=layers.get)
    elim = shares.get("linalg.echelon", 0.0)
    if name == "spectral-fp":
        sq = self_s["linalg.echelon"] + self_s["linalg.subquotient"]
        others = max(s for g, s in layers.items()
                     if g not in ("linalg.echelon", "linalg.subquotient"))
        return {"elimination+subquotient is the largest self time":
                sq > others,
                "tree_iso calls == 0": calls["bigraded.tree_iso"] == 0}
    if name == "dainf-fp":
        return {"tree_iso is the largest self time":
                top == "bigraded.tree_iso",
                "elimination share < 5%": elim < 0.05}
    return {"largest self time": top}


def write_results(tag: str, payload: dict):
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    path = os.path.join(RUN_DIR, "results", tag + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return path


def print_metrics(metrics: dict):
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = os.path.join(RUN_DIR, f"{wl.name}-seed{args.seed}")
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    info = machine()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runner, tracer, metrics, notes = run_traced(wl, args.seed, work)
        os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
        tracer.write_spans(os.path.join(RUN_DIR, "results",
                                        tag + "-spans.jsonl.gz"))
        for p in notes["audit_problems"]:
            print(f"audit: {p}", file=sys.stderr)
        correct_extra = not notes["audit_problems"] and notes["replay_ok"]
    else:
        runner, metrics, notes = run_untraced(wl, args.seed, args.seconds,
                                              work, args.record_digests)
        correct_extra = True
    records = runner.records
    failed = sum(not r["ok"] for r in records)
    for r in records:
        if not r["ok"]:
            print(f"job {r['id']} failed: {'; '.join(r['why'])}",
                  file=sys.stderr)
    if args.record_digests:
        if failed:
            print("not recording digests: some jobs failed", file=sys.stderr)
            return 1
        store = {"seed": DEFAULT_SEED, "workloads": {}}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                store = json.load(fh)
        store["workloads"][wl.name] = dict(sorted(runner.seen.items()))
        with open(DIGESTS, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
            fh.write("\n")
    path = write_results(tag, {"workload": wl.name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "machine": info, "metrics": metrics,
                               "notes": notes, "jobs": records})
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["wall_s"])
    print(f"{wl.name} seed {args.seed}: {len(records)} jobs, {failed} failed;"
          f" details in {os.path.relpath(path, ROOT)}")
    for kind, ts in kinds.items():
        print(f"  {kind:12s} n={len(ts):3d} median {statistics.median(ts):.4f}"
              f" s  max {max(ts):.4f} s")
    if "tail_percentile" in notes:
        print(f"  job_tail_s is p{notes['tail_percentile']} over "
              f"N={notes['jobs']} jobs")
    if "purpose" in notes:
        replaced = sum(len(v) for v in notes["bindings"].values())
        print(f"  audit: {len(notes['bindings'])} wrappers replaced "
              f"{replaced} bindings; {len(notes['audit_problems'])} problems")
        print(f"  purpose: {notes['purpose']}")
    print_metrics(metrics)
    result = {"correct": failed == 0 and correct_extra,
              "attempted": len(records), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload untraced then traced, one child process at a time."""
    from workloads import WORKLOADS

    rows = []
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for metric, m in result["metrics"].items():
                rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:40s} {value:.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="spectral-fp, dainf-fp, cli-qq or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run every job once and store the output digests "
                         f"for seed {DEFAULT_SEED} in bench/digests.json")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "multiplex", "__init__.py")):
        print(f"error: no multiplex sources under {SRC}", file=sys.stderr)
        return 2
    # hermetic interpreter: fixed hash seed, no page-computation threads
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED \
            or "MULTIPLEX_THREADS" in os.environ:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env.pop("MULTIPLEX_THREADS", None)
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  env)
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded for seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
