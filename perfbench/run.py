#!/usr/bin/env python3
"""End-to-end benchmark of the `ebrc` command-line program.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload droptail --seed 1 --seconds 25 --trace 0

The script builds `bin/ebrc_cli.exe` from source with dune (into
`.bench_build/`), derives the workload's inputs from `--seed`, drives the
program only through its command line, checks every output, and prints
one JSON object as the last line of standard output.

Workloads (every job is a command a user would type):

  droptail  `ebrc breakdown`: 4 TFRC + 4 TCP flows, 15 Mb/s DropTail-100
            bottleneck, 25 simulated seconds: the paper's lab set-up.
  red       the same dumbbell behind a RED queue: another queue
            discipline and loss process on the same event core.
  wide      `ebrc breakdown`: 32 + 32 flows at 64 Mb/s behind RED, 5
            simulated seconds: the same share per flow as droptail, with
            eight times the flows and pending timers.
  serve     `ebrc serve` of a 20-task `ebrc manifest` sweep with two
            worker processes: the fleet path (task queue, leases, result
            store, supervisor polling) with telemetry streams on.

Each workload is a closed loop with one client: a job starts when the
previous one has finished.  Jobs go round-robin over the run's seeded
inputs: 12 tasks for a direct workload, 4 manifests (each into a fresh
queue) for serve.

Other tenants of the host slow most milliseconds of every process by up
to 1.6x, in proportions that drift over minutes, which moves a plain
median by 15-30% between runs.  So jobs are kept short (20-40 ms), the
timing of a direct input is its best job in the run (the round-robin
spreads its repetitions over the run), and the reported figure is the
median over inputs.  A sweep's wall time is quantised by the supervisor's
0.25 s poll instead, so for serve an input's timing is its median sweep.

--trace 0 reports the end-to-end metrics:
  job_ms       median over inputs of the input's job wall time, as above
  tasks_per_s  scenario tasks per second at that job time
  peak_rss_mb  median peak resident memory of a job's processes
  setup_s      the set-up is tried three times before the timed loop and
               once after each round-robin cycle, and the tries are dealt
               round-robin into three set-ups; the figure is the median
               of their best tries.  One try is a cold start of the
               program on the first task at 0.5 simulated seconds (direct
               workloads), or writing a manifest and priming a fresh
               queue (serve)

--trace 1 makes a separate run that builds an outside-in per-layer
ledger.  Each round times calls the benchmark makes into the program:
  startup_ms    `ebrc --version`: process start, module initialisation, exit
  construct_ms  per task: the task cut to 0.5 simulated seconds, less
                start-up (serve: a one-worker drain of such tasks, so
                queue claims and store publication are included)
  simulate_ms   per task: the full task less the 0.5 s task
  telemetry_ms  per task: the full task with `--telemetry` on, less off
  overhead_ms   per task: wall time of the workload's own front end not
                spent in construct or simulate (direct: process start-up;
                serve: spawning, polling and collection, times the worker
                count)
  ns_per_event  simulate_ms over the events the simulation fired
and, from the program's telemetry counters, per task: events fired,
events discarded (cancelled timers), packets delivered by the bottleneck,
queue drops, TFRC feedback reports and TCP timeouts.

Outputs are checked: exit codes; every `breakdown` result is re-derived
from its printed throughputs, loss-event rates and RTTs with the paper's
PFTK-standard formula (Eq. 6); repeated inputs must print byte-identical
results, with telemetry on or off; every sweep must publish all its
tasks, pass `ebrc scrub`, and leave a store byte-identical to the first
sweep of the manifest, whether drained by `serve` or by one `ebrc worker`.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
SETUP_GROUPS = 3          # set-up tries are dealt round-robin into these
DIRECT_TASKS = 12         # seeded tasks a direct run cycles through
SHORT_DURATION = 0.5      # simulated seconds of a construct probe

DIRECT = {
    "droptail": {"flows": 4, "mbps": 15, "queue": ["--droptail", "100"],
                 "duration": 25},
    "red": {"flows": 4, "mbps": 15, "queue": [], "duration": 25},
    "wide": {"flows": 32, "mbps": 64, "queue": [], "duration": 5},
}
RTT_MS = 50.0             # the `breakdown` default base RTT

SERVE_MANIFESTS = 4       # seeded manifests a serve run cycles through
SERVE_TASKS = 20
SERVE_WORKERS = 2
SERVE_DURATION = 60       # simulated seconds per task

E2E_UNITS = {"job_ms": "ms", "tasks_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}
LAYER_UNITS = {
    "startup_ms": "ms",
    "construct_ms": "ms",
    "simulate_ms": "ms",
    "telemetry_ms": "ms",
    "overhead_ms": "ms",
    "ns_per_event": "ns",
    "events_per_task": "count",
    "discarded_per_task": "count",
    "packets_per_task": "count",
    "drops_per_task": "count",
    "feedbacks_per_task": "count",
    "timeouts_per_task": "count",
}
COUNTERS = {
    "events_per_task": "sim.events_fired",
    "discarded_per_task": "sim.events_discarded",
    "packets_per_task": "link.delivered",
    "drops_per_task": "queue.drops",
    "feedbacks_per_task": "tfrc.feedbacks",
    "timeouts_per_task": "tcp.timeouts",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


class CheckFailed(Exception):
    """The program ran but an output was wrong."""


# --------------------------------------------------------------- program

def build(root):
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isfile(os.path.join(root, "bin", "ebrc_cli.ml"))):
        raise BenchError("run from the root of an ebrc source checkout")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir",
         os.path.join(root, BUILD_DIR), "bin/ebrc_cli.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(root, BUILD_DIR, "default", "bin", "ebrc_cli.exe")
    if r.returncode != 0 or not os.path.isfile(exe):
        raise BenchError("dune build failed")
    return exe


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass


class Program:
    def __init__(self, exe, work):
        self.exe = exe
        self.work = work
        # The program reads EBRC_* knobs (cache dir, chaos, streams);
        # the benchmark measures the defaults.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("EBRC_")}
        self.runs = 0

    def run(self, args):
        """Run one command; return (wall seconds, stdout, peak RSS in KiB).

        The peak RSS covers the process and every child it waited for.
        """
        self.runs += 1
        cmd = "ebrc " + " ".join(args)
        with tempfile.TemporaryFile(mode="w+", dir=self.work) as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([self.exe] + args, cwd=self.work,
                                 env=self.env, stdout=subprocess.PIPE,
                                 stderr=err, text=True,
                                 start_new_session=True)
            timer = threading.Timer(JOB_TIMEOUT_S, kill_group, (p.pid,))
            timer.start()
            try:
                out = p.stdout.read()
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
                p.stdout.close()
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
            if p.returncode != 0:
                err.seek(0)
                raise CheckFailed(f"exit {p.returncode}: {cmd}: "
                                  f"{err.read().strip()[-300:]}")
        return wall, out, usage.ru_maxrss

    def path(self, name):
        return os.path.join(self.work, name)


def read_counters(path):
    counts = {}
    with open(path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and rec.get("type") == "counter":
                counts[rec.get("name")] = rec.get("count", 0)
    return counts


# ------------------------------------------------------- output oracles

BREAKDOWN_RE = re.compile(
    r"utilization (?P<util>[0-9.]+)%, (?P<drops>\d+) drops\n"
    r"TFRC: x=(?P<x>[0-9.]+) pkt/s  p=(?P<p>[0-9.]+)  rtt=(?P<r>[0-9.]+) ms\n"
    r"TCP : x=(?P<x2>[0-9.]+) pkt/s  p=(?P<p2>[0-9.]+)  rtt=(?P<r2>[0-9.]+) ms\n"
    r"breakdown: x/f\(p,r\)=(?P<c1>\S+)  p'/p=(?P<c2>\S+)  r'/r=(?P<c3>\S+)  "
    r"x'/f\(p',r'\)=(?P<c4>\S+)  x/x'=(?P<c5>\S+)\n")


def pftk(p, rtt):
    """PFTK-standard throughput (Eq. 6) with b = 2 and q = 4 r."""
    c1 = math.sqrt(4.0 / 3.0)
    c2 = 1.5 * math.sqrt(3.0)
    sq = math.sqrt(p)
    return 1.0 / (c1 * rtt * sq
                  + 4.0 * rtt * min(1.0, c2 * sq) * p * (1.0 + 32.0 * p * p))


def check_breakdown(out):
    """Re-derive the printed four-way breakdown from the printed inputs."""
    m = BREAKDOWN_RE.fullmatch(out)
    if m is None:
        raise CheckFailed(f"unexpected breakdown output: {out[:300]!r}")
    v = {k: float(s) for k, s in m.groupdict().items()}
    if not 0.0 < v["util"] <= 100.05:
        raise CheckFailed(f"utilization {v['util']}% out of range")
    for x, p, r in (("x", "p", "r"), ("x2", "p2", "r2")):
        if not (v[x] > 0.0 and 0.0 < v[p] < 1.0 and v[r] >= RTT_MS - 0.05):
            raise CheckFailed(f"implausible flow summary in {out[:300]!r}")
    # Printed inputs carry 3-4 significant digits, so allow 2% + rounding.
    want = {
        "c1": v["x"] / pftk(v["p"], v["r"] / 1e3),
        "c2": v["p2"] / v["p"],
        "c3": v["r2"] / v["r"],
        "c4": v["x2"] / pftk(v["p2"], v["r2"] / 1e3),
        "c5": v["x"] / v["x2"],
    }
    for k, w in want.items():
        if not abs(v[k] - w) <= 0.02 * abs(w) + 0.002:
            raise CheckFailed(f"breakdown ratio {k}: printed {v[k]}, "
                              f"formula gives {w:.4f}")


def store_bytes(store):
    files = {}
    for name in sorted(os.listdir(store)):
        path = os.path.join(store, name)
        if os.path.isfile(path) and name.endswith(".json"):
            with open(path, "rb") as f:
                files[name] = f.read()
    return files


# ------------------------------------------------------------- workloads

class Direct:
    """One `ebrc breakdown` run per job."""

    tasks_per_job = 1
    summary = staticmethod(min)

    def __init__(self, prog, spec, seed):
        self.prog = prog
        self.spec = spec
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1, 1 << 30) for _ in range(DIRECT_TASKS)]
        self.seen = {}

    def args(self, k, duration=None):
        s = self.spec
        n = str(s["flows"])
        return (["breakdown", "--tfrc", n, "--tcp", n, "--mbps", str(s["mbps"])]
                + s["queue"]
                + ["--duration", str(duration or s["duration"]),
                   "--seed", str(self.seeds[k])])

    def checked(self, k, out):
        check_breakdown(out)
        if self.seen.setdefault(k, out) != out:
            raise CheckFailed(f"seed {self.seeds[k]}: rerun printed "
                              "different results")

    def setup(self):
        return self.prog.run(self.args(0, SHORT_DURATION))[0]

    def job(self, k):
        wall, out, rss = self.prog.run(self.args(k))
        self.checked(k, out)
        return wall, rss

    def ledger_round(self, k):
        tele = self.prog.path("ledger.jsonl")
        a = self.prog.run(["--version"])[0]
        b = self.prog.run(self.args(k, SHORT_DURATION))[0]
        c, out, _ = self.prog.run(self.args(k))
        self.checked(k, out)
        d, out, _ = self.prog.run(self.args(k) + ["--telemetry", tele])
        self.checked(k, out)
        return {"startup": a, "construct": b - a, "simulate": c - b,
                "telemetry": d - c, "front": c, "counts": read_counters(tele)}


class Serve:
    """One `ebrc serve` sweep of a seeded manifest per job."""

    tasks_per_job = SERVE_TASKS
    summary = staticmethod(statistics.median)

    def __init__(self, prog, seed):
        self.prog = prog
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1, 1 << 30) for _ in range(SERVE_MANIFESTS)]
        self.reference = {}
        self.queues = 0

    def manifest(self, k, duration=SERVE_DURATION):
        """Write manifest k if missing; return its path."""
        path = self.prog.path(f"manifest{k}-{duration}.json")
        if not os.path.exists(path):
            self.write(path, k, duration)
        return path

    def write(self, path, k, duration):
        self.prog.run(["manifest", path, "--tasks", str(SERVE_TASKS),
                       "--seed0", str(self.seeds[k]),
                       "--duration", str(duration)])

    def fresh_queue(self):
        self.queues += 1
        return self.prog.path(f"q{self.queues}")

    def prime(self, manifest):
        q = self.fresh_queue()
        self.prog.run(["serve", manifest, "--queue", q, "--workers", "0",
                       "--quiet"])
        return q

    def finish(self, k, q):
        """Check a drained queue's store, then delete the queue."""
        store = os.path.join(q, "store")
        n = SERVE_TASKS
        out = self.prog.run(["scrub", store])[1]
        if f"{n} record(s) checked, {n} ok, 0 quarantined" not in out:
            raise CheckFailed(f"scrub: {out.strip()[-200:]}")
        files = store_bytes(store)
        if len(files) != n:
            raise CheckFailed(f"store holds {len(files)} records, expected {n}")
        for body in files.values():
            json.loads(body)
        if self.reference.setdefault(k, files) != files:
            raise CheckFailed(f"manifest {k}: store differs from the first "
                              "sweep of the same manifest")
        shutil.rmtree(q)

    def setup(self):
        t0 = time.perf_counter()
        path = self.prog.path("setup.json")
        self.write(path, 0, SERVE_DURATION)
        q = self.prime(path)
        wall = time.perf_counter() - t0
        shutil.rmtree(q)
        return wall

    def sweep(self, k):
        q = self.fresh_queue()
        wall, out, rss = self.prog.run(
            ["serve", self.manifest(k), "--queue", q,
             "--workers", str(SERVE_WORKERS)])
        n = SERVE_TASKS
        if f"complete ({n}/{n} published)" not in out:
            raise CheckFailed(f"serve: {out.strip()[-200:]}")
        return wall, rss, q

    def job(self, k):
        wall, rss, q = self.sweep(k)
        self.finish(k, q)
        return wall, rss

    def ledger_round(self, k):
        n = SERVE_TASKS
        tele = self.prog.path("ledger.jsonl")
        a = self.prog.run(["--version"])[0]
        q = self.prime(self.manifest(k, SHORT_DURATION))
        b = self.prog.run(["worker", q])[0]
        shutil.rmtree(q)
        q = self.prime(self.manifest(k))
        c = self.prog.run(["worker", q])[0]
        self.finish(k, q)
        q = self.prime(self.manifest(k))
        d = self.prog.run(["worker", q, "--telemetry", tele])[0]
        self.finish(k, q)
        e, _, q = self.sweep(k)
        self.finish(k, q)
        return {"startup": a, "construct": (b - a) / n,
                "simulate": (c - b) / n, "telemetry": (d - c) / n,
                "front": e * SERVE_WORKERS / n,
                "counts": {name: v / n
                           for name, v in read_counters(tele).items()}}


# ------------------------------------------------------------------ main

def cycles(workload, seconds, deadline, step, between=None):
    """Round-robin step(k) over the workload's tasks until `seconds` have
    passed, finishing at least one full cycle; call between() after each
    cycle.  Returns [(k, result)]."""
    n = len(workload.seeds)
    out = []
    t_end = time.perf_counter() + seconds
    while (time.perf_counter() < t_end or len(out) < n) \
            and time.perf_counter() < deadline:
        k = len(out) % n
        out.append((k, step(k)))
        if between is not None and len(out) % n == 0:
            between()
    return out


def measure(workload, seconds, deadline):
    setups = [workload.setup() for _ in range(SETUP_GROUPS)]
    jobs = cycles(workload, seconds, deadline, workload.job,
                  lambda: setups.append(workload.setup()))
    walls = {}
    for k, (wall, _) in jobs:
        walls.setdefault(k, []).append(wall)
    job_s = statistics.median(workload.summary(w) for w in walls.values())
    return {
        "job_ms": 1e3 * job_s,
        "tasks_per_s": workload.tasks_per_job / job_s,
        "peak_rss_mb": statistics.median(rss for _, (_, rss) in jobs) / 1024,
        "setup_s": statistics.median(
            min(setups[g::SETUP_GROUPS]) for g in range(SETUP_GROUPS)),
    }


def ledger(workload, seconds, deadline):
    rounds = [r for _, r in cycles(workload, seconds, deadline,
                                   workload.ledger_round)]

    def med(key):
        return statistics.median(r[key] for r in rounds)

    construct, simulate = med("construct"), med("simulate")
    m = {
        "startup_ms": 1e3 * med("startup"),
        "construct_ms": 1e3 * construct,
        "simulate_ms": 1e3 * simulate,
        "telemetry_ms": 1e3 * med("telemetry"),
        "overhead_ms": 1e3 * (med("front") - construct - simulate),
    }
    # Counters are deterministic per task; average over the rounds' tasks.
    for name, counter in COUNTERS.items():
        m[name] = statistics.mean(r["counts"].get(counter, 0) for r in rounds)
    events = m["events_per_task"]
    m["ns_per_event"] = 1e9 * simulate / events if events > 0 else 0.0
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(list(DIRECT) + ["serve"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S

    root = os.getcwd()
    try:
        exe = build(root)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    prog = Program(exe, work)
    seed = f"{args.workload}:{args.seed}"
    if args.workload == "serve":
        workload = Serve(prog, seed)
    else:
        workload = Direct(prog, DIRECT[args.workload], seed)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    correct = True
    try:
        if args.trace:
            metrics = ledger(workload, args.seconds, deadline)
        else:
            metrics = measure(workload, args.seconds, deadline)
    except CheckFailed as e:
        print(f"perfbench: FAILED: {e}", file=sys.stderr)
        correct = False
        metrics = {k: 0.0 for k in units}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": prog.runs,
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
