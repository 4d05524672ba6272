"""The selfdual benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/selfdual``.  Workloads
(closed loop, one client, one worker process at a time):

  cli-cold         each request is a fresh interpreter running the
                   `selfdual` CLI: `construct` on one instance of the pool,
                   then `verify` on the JSON it printed
  euclidean-table  `run_table_pair` for the 22 reference pairs, each
                   confirmed pair followed by an in-process `verify` of its
                   golden code; one fresh interpreter per pass
  hermitian-sweep  the 56 Hermitian builds of criteria 4 to 6, each
                   followed by an in-process `verify` of the code it
                   returned; one fresh interpreter per pass

The seed only shuffles the order of instances (see workloads.BLOCKS).
A run makes a fixed number of whole passes, round(S / budgeted pass
time), at least one, so that parent and child commits time the same
work.  Every output is
compared with the golden files recorded at the seed commit; a byte or
verdict difference, an unexpected exit code or an exception is a failed
operation.

Times are in reference seconds: each interval is scaled by the machine
speed that speed.py probes just before and after it, and the probes
themselves are not counted.  The line before the result records the raw
wall times and the median speed factor next to the machine facts.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones: one untraced pass, the same pass traced
(spans from tracer.py, written to perfbench/out/) and the kernel probes
(probes.py) in an interpreter of their own.  Metric names and units come
from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import BOUNDARY_RUNS, REFERENCE_S, probe
from tracer import self_times
from workloads import (
    BLOCKS,
    CLI_POOL,
    TABLE_PAIRS,
    cli_id,
    is_proved,
    shuffled,
    sweep_builds,
    sweep_id,
    table_id,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
PROBES = os.path.join(HERE, "probes.py")

# wall seconds budgeted per untraced pass, slow phases of the 2-core
# reference box included
PASS_BUDGET_S = {"cli-cold": 15.0, "euclidean-table": 10.0,
                 "hermitian-sweep": 30.0}
# import-only interpreters for setup_s, half before and half after the
# passes so that they meet more than one speed episode
IMPORT_PROBES = 12
RUN_BUDGET_S = 170.0    # every child is killed past this point of a run


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's import time compares
    # with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts one child at a time and collects what it reports."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = _now() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items()
                    if k != "SELFDUAL_GUARD_OVERRIDE"}
        self.env["PYTHONPATH"] = SRC
        self.setups: list[float] = []
        self.rss_kb: list[int] = []
        self.speeds: list[float] = []
        self._count = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def spawn(self, script: str, args, result_file: str | None = None):
        """Run one child; returns (start, end, proc, reported dict, speed)
        where speed is the probe taken just before the start."""
        self._count += 1
        result = result_file or self.path("result-%d.json" % self._count)
        timeout = self.deadline - _now()
        if timeout <= 0:
            raise BenchError("run budget of %.0f s exhausted" % RUN_BUDGET_S)
        speed = probe(BOUNDARY_RUNS)
        self.speeds.append(speed)
        start = _now()
        try:
            proc = subprocess.run([sys.executable, script, result, *args],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("child timed out: %s" % (args,)) from exc
        end = _now()
        try:
            with open(result, encoding="utf-8") as fh:
                reported = json.load(fh)
            os.remove(result)
        except (OSError, ValueError):
            reported = None
        if reported is not None and script == WORKER:
            here = os.path.realpath(reported["selfdual"])
            if not here.startswith(os.path.realpath(SRC) + os.sep):
                raise BenchError("imported selfdual from %s" % here)
            self.setups.append((reported["imported"] - start)
                               * REFERENCE_S / speed)
            self.rss_kb.append(reported["maxrss_kb"])
        return start, end, proc, reported, speed


def _scaled(timings, final: float):
    """Reference seconds of consecutive ops.

    ``timings`` holds (raw seconds, seconds spent sampling, probes) per
    op, the probes being the one before it and the samples during it; the
    next op's first probe, or ``final`` after the last, closes it.
    """
    afters = [probes[0] for _, _, probes in timings[1:]] + [final]
    return [(raw - spent) * REFERENCE_S * (len(probes) + 1)
            / (sum(probes) + after)
            for (raw, spent, probes), after in zip(timings, afters)]


def _op(op_id, ok, why=None, report=None, verify=False, op=True):
    """One operation; ``report`` is (report dict, n, k) or None."""
    proved = None
    if report is not None:
        proved = is_proved(*report)
    return {"id": op_id, "ok": ok, "why": why, "proved": proved,
            "verify": verify, "op": op}


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# passes: each returns {"wall", "raw_wall", "codes", "ops", "spans",
# "cache", "factors"}; "wall" and op latencies are in reference seconds,
# "factors" turn each op's raw seconds into them
# ---------------------------------------------------------------------------

def cli_pass(runner: Runner, order, golden, traced: bool) -> dict:
    ops, spans, hits, misses = [], [], 0, 0
    codes = 0
    timings = []
    for i in order:
        argv = CLI_POOL[i]
        key = cli_id(argv)
        code_file = runner.path("code-%d.json" % i)
        built = None
        for step, args in (("construct", ["construct", *argv]),
                           ("verify", ["verify", code_file])):
            opno = len(ops)
            span_file = runner.path("spans-%d.ndjson" % opno) if traced \
                else "-"
            t0, t1, proc, rep, speed = runner.spawn(
                WORKER, ["cli", span_file, str(opno), *args])
            timings.append((t1 - t0, rep["spent"] if rep else 0.0,
                            [speed, *(rep["probes"] if rep else ())]))
            text = proc.stdout.decode("utf-8", "replace")
            want = golden[key][step]
            why = None
            if proc.returncode != want["rc"]:
                why = "exit code %d, expected %d: %s" % (
                    proc.returncode, want["rc"],
                    proc.stderr[-400:].decode("utf-8", "replace"))
            elif text != want["stdout"]:
                why = "output differs from golden"
            obj = _parse(text)
            report = None
            if step == "construct":
                with open(code_file, "wb") as fh:
                    fh.write(proc.stdout)
                if why is None:
                    codes += 1
                if obj and "verification" in obj:
                    built = obj
                    report = (obj["verification"], obj["n"], obj["k"])
            elif obj and "mds" in obj and built is not None:
                report = (obj, built["n"], built["k"])
            ops.append(_op("%s: %s" % (step, key), why is None, why,
                           report, verify=step == "verify"))
            if traced and rep is not None:
                spans.append(span_file)
                hits += rep["cache"][0]
                misses += rep["cache"][1]
    latencies = _scaled(timings, probe(BOUNDARY_RUNS))
    for op, latency in zip(ops, latencies):
        op["latency"] = latency
    return {"wall": sum(latencies), "raw_wall": sum(t[0] for t in timings),
            "codes": codes, "ops": ops, "spans": spans,
            "cache": (hits, misses),
            "factors": [x / t[0] for x, t in zip(latencies, timings)]}


# the golden field each in-process op kind is compared with
_EXPECTED = {"table_pair": "row", "build": "build", "verify": "verify"}


def _report(kind: str, got, want):
    """(report, n, k) for mds_proved_ratio, or None when there is none."""
    if got is None:
        return None
    if kind == "table_pair":
        if got["verdict"] != "CONFIRMED":
            return None
        d = got["detail"]
        return {"mds": {"status": d["mds"]}, "distance": d["distance"]}, \
            d["n"], d["k"]
    if kind == "build":
        return got["verification"], got["n"], got["k"]
    obj = _parse(got["stdout"])
    size = want["build"] if "build" in want else want["row"]["detail"]
    return (obj, size["n"], size["k"]) if obj and "mds" in obj else None


def _inproc_pass(runner: Runner, plan, golden, traced: bool) -> dict:
    """Run (op, key) steps in one fresh interpreter and check each op."""
    plan_file = runner.path("plan.json")
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump([step for step, _ in plan], fh)
    span_file = runner.path("spans-inproc.ndjson") if traced else "-"
    t0, t1, proc, rep, speed = runner.spawn(
        WORKER, ["inproc", span_file, plan_file])
    if rep is None or proc.returncode != 0:
        # the interpreter died: every op of the pass failed
        why = "worker exited %d: %s" % (
            proc.returncode, proc.stderr[-400:].decode("utf-8", "replace"))
        rep = {"ops": [{"probes": [speed], "spent": 0.0, "start": t0,
                        "end": t0, "output": None, "error": why}] * len(plan),
               "probe": speed, "ready": t1, "done": t1}
        traced = False
    raw = [out["end"] - out["start"] for out in rep["ops"]]
    latencies = _scaled([(r, out["spent"], out["probes"])
                         for r, out in zip(raw, rep["ops"])], rep["probe"])
    # start-up and shutdown count, the probes between ops do not
    wall = ((rep["ready"] - t0) * REFERENCE_S / speed + sum(latencies)
            + (t1 - rep["done"]) * REFERENCE_S / rep["probe"])
    ops, codes = [], 0
    for (step, key), out in zip(plan, rep["ops"]):
        kind, want, got = step["kind"], golden[key], out["output"]
        why = out["error"]
        if why is None and got != want[_EXPECTED[kind]]:
            why = "%s differs from golden" % kind
        report = _report(kind, got, want)
        verify = kind == "verify"
        if why is None and report is not None and not verify:
            codes += 1
        ops.append(_op("%s: %s" % (kind, key), why is None, why, report,
                       verify=verify, op=not verify))
    for op, latency in zip(ops, latencies):
        op["latency"] = latency
    return {"wall": wall, "raw_wall": t1 - t0, "codes": codes, "ops": ops,
            "spans": [span_file] if traced else [],
            "cache": tuple(rep.get("cache", (0, 0))),
            "factors": [x / r if r else 0.0
                        for x, r in zip(latencies, raw)]}


def table_pass(runner: Runner, order, golden, traced: bool) -> dict:
    plan = []
    for i in order:
        key = table_id(TABLE_PAIRS[i])
        plan.append(({"kind": "table_pair", "args": list(TABLE_PAIRS[i])},
                     key))
        if "code" in golden[key]:
            code_file = runner.path("table-%d.json" % i)
            with open(code_file, "w", encoding="utf-8") as fh:
                fh.write(golden[key]["code"])
            plan.append(({"kind": "verify", "code_file": code_file}, key))
    return _inproc_pass(runner, plan, golden, traced)


def sweep_pass(runner: Runner, order, golden, traced: bool) -> dict:
    builds = sweep_builds()
    plan = []
    for i in order:
        name, args = builds[i]
        key = sweep_id(builds[i])
        code_file = runner.path("sweep-%d.json" % i)
        plan.append(({"kind": "build", "name": name, "args": list(args),
                      "code_file": code_file}, key))
        plan.append(({"kind": "verify", "code_file": code_file}, key))
    return _inproc_pass(runner, plan, golden, traced)


WORKLOADS = {"cli-cold": cli_pass, "euclidean-table": table_pass,
             "hermitian-sweep": sweep_pass}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """(value, percentile, samples) at the highest percentile that still
    has ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        raise BenchError("%d operations are too few for a tail" % n)
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes, runner: Runner, info: dict) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    latencies = [op["latency"] for op in ops if op["op"]]
    verifies = [op["latency"] for op in ops if op["verify"]]
    reports = [op["proved"] for op in ops if op["proved"] is not None]
    failed = sum(1 for op in ops if not op["ok"])
    value, pct, count = tail(latencies)
    info["op_tail"] = {"percentile": round(pct, 2), "samples": count}
    info["failed_ratio"] = failed / len(ops)
    info["mds_reports"] = {"proved": sum(reports), "total": len(reports)}
    return {
        "codes_per_s": statistics.median(p["codes"] / p["wall"]
                                         for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "verify_p50_s": statistics.median(verifies),
        "setup_s": statistics.median(runner.setups),
        "peak_rss_mb": max(runner.rss_kb) / 1024.0,
        "ok_ratio": 1.0 - failed / len(ops),
        "mds_proved_ratio": sum(reports) / max(1, len(reports)),
    }


def per_layer(plain: dict, traced: dict, probes: dict, out_file: str) -> dict:
    totals: dict[str, list] = {}
    with open(out_file, "w", encoding="utf-8") as merged:
        for proc_no, path in enumerate(traced["spans"]):
            with open(path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            for sp in spans:
                sp["proc"] = proc_no
                merged.write(json.dumps(sp) + "\n")
            for name, (own, calls) in self_times(
                    spans, traced["factors"]).items():
                acc = totals.setdefault(name, [0.0, 0])
                acc[0] += own
                acc[1] += calls
    values = dict(probes)
    for name, (own, calls) in totals.items():
        values[name + ".s"] = own
        values[name + ".calls"] = calls
    values["linalg.dlog_table.builds"] = totals.get(
        "linalg.dlog_table", [0.0, 0])[1]
    hits, misses = traced["cache"]
    values["fields.cache_hit_ratio"] = hits / max(1, hits + misses)
    values["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    values["trace.layer_share"] = (
        sum(own for own, _ in totals.values())
        / sum(op["latency"] for op in traced["ops"]))
    return values


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc)) from exc


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "selfdual", "__init__.py")):
        raise BenchError("no src/selfdual under %s" % ROOT)
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    golden = _load_json(os.path.join(HERE, "golden", args.workload + ".json"))
    run_pass = WORKLOADS[args.workload]
    # .pyc files exist before anything is timed
    for tree in (SRC, HERE):
        if not compileall.compile_dir(tree, quiet=1):
            raise BenchError("cannot byte-compile %s" % tree)
    # the parent's speed probes and the child they precede share a CPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    rng = random.Random(args.seed)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "python": sys.version.split()[0], "git_sha": _git_sha(),
        "cpu": cpu,
    }
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(workdir)
        if args.trace:
            order = shuffled(BLOCKS[args.workload], rng)
            plain = run_pass(runner, order, golden, False)
            traced = run_pass(runner, order, golden, True)
            probe_file = runner.path("probes.json")
            _, _, proc, probes, _ = runner.spawn(PROBES, [str(args.seed)],
                                              probe_file)
            if probes is None:
                raise BenchError("probes failed: %s" % proc.stderr[-2000:]
                                 .decode("utf-8", "replace"))
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            values = per_layer(plain, traced, probes, os.path.join(
                out_dir, args.workload + ".trace.ndjson"))
            passes = [plain, traced]
            wanted = spec["per_layer"]
        else:
            for _ in range(IMPORT_PROBES // 2):
                runner.spawn(WORKER, ["import", "-"])
            passes = []
            for _ in range(max(1, round(args.seconds
                                        / PASS_BUDGET_S[args.workload]))):
                order = shuffled(BLOCKS[args.workload], rng)
                passes.append(run_pass(runner, order, golden, False))
            for _ in range(IMPORT_PROBES - IMPORT_PROBES // 2):
                runner.spawn(WORKER, ["import", "-"])
            values = end_to_end(passes, runner, info)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for p in passes for op in p["ops"]]
    failures = [(op["id"], op["why"]) for op in ops if not op["ok"]]
    info["passes"] = len(passes)
    info["pass_s"] = [p["wall"] for p in passes]
    info["raw_pass_wall_s"] = [p["raw_wall"] for p in passes]
    info["speed_factor"] = statistics.median(REFERENCE_S / x
                                             for x in runner.speeds)
    info["failures"] = failures[:10]
    print(json.dumps({"run_info": info}))
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
        elif m["name"].endswith((".s", ".calls", ".builds")):
            value = 0  # the workload never enters that function
        else:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": not failures, "attempted": len(ops),
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
