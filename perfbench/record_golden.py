"""Record the golden outputs that every benchmark run is checked against.

    python3 perfbench/record_golden.py

Run from the root of a checkout.  Writes perfbench/golden/<workload>.json:

  cli-cold         exit code and exact stdout of `construct` and of
                   `verify` on its output, for every pool instance
  euclidean-table  each pair's row (verdict, reason, distance, MDS
                   status, without the wall time), the `construct` JSON
                   of each confirmed pair and the `verify` output on it
  hermitian-sweep  each build's route, theorem, n, k, report and the
                   SHA-256 of its `construct` JSON, and the `verify`
                   output on that JSON

Rerun it only when a change is meant to alter outputs; the benchmark
counts any difference from these files as a failed operation.
"""
import json
import os
import shutil
import sys
import tempfile

from run import HERE, WORKER, Runner
from workloads import (
    CLI_POOL,
    TABLE_PAIRS,
    cli_id,
    sweep_builds,
    sweep_id,
    table_id,
)


def _inproc(runner: Runner, plan):
    plan_file = runner.path("plan.json")
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    _, _, proc, rep, _ = runner.spawn(WORKER, ["inproc", "-", plan_file])
    if rep is None or any(op["error"] for op in rep["ops"]):
        sys.exit("worker failed: %s %s" % (proc.stderr.decode(), rep))
    return [op["output"] for op in rep["ops"]]


def record_cli(runner: Runner) -> dict:
    golden = {}
    code_file = runner.path("code.json")
    for argv in CLI_POOL:
        entry = {}
        for step, args in (("construct", ["construct", *argv]),
                           ("verify", ["verify", code_file])):
            _, _, proc, _, _ = runner.spawn(WORKER,
                                            ["cli", "-", "0", *args])
            entry[step] = {"rc": proc.returncode,
                           "stdout": proc.stdout.decode("utf-8")}
            if step == "construct":
                with open(code_file, "wb") as fh:
                    fh.write(proc.stdout)
        golden[cli_id(argv)] = entry
    return golden


def record_table(runner: Runner) -> dict:
    rows = _inproc(runner, [{"kind": "table_pair", "args": list(pair)}
                            for pair in TABLE_PAIRS])
    golden = {table_id(pair): {"row": row}
              for pair, row in zip(TABLE_PAIRS, rows)}
    plan, keys = [], []
    for pair, row in zip(TABLE_PAIRS, rows):
        if row["verdict"] != "CONFIRMED":
            continue
        length, p, t = pair
        code_file = runner.path("table-%d.json" % len(keys))
        plan.append({"kind": "build",
                     "name": "build_euclidean_duadic_extended",
                     "args": [p, t, length - 1], "code_file": code_file})
        plan.append({"kind": "verify", "code_file": code_file})
        keys.append(table_id(pair))
    outs = _inproc(runner, plan)
    for i, key in enumerate(keys):
        with open(plan[2 * i]["code_file"], encoding="utf-8") as fh:
            golden[key]["code"] = fh.read()
        golden[key]["verify"] = outs[2 * i + 1]
    return golden


def record_sweep(runner: Runner) -> dict:
    plan = []
    for i, (name, args) in enumerate(sweep_builds()):
        code_file = runner.path("sweep-%d.json" % i)
        plan.append({"kind": "build", "name": name, "args": list(args),
                     "code_file": code_file})
        plan.append({"kind": "verify", "code_file": code_file})
    outs = _inproc(runner, plan)
    return {sweep_id(build): {"build": outs[2 * i], "verify": outs[2 * i + 1]}
            for i, build in enumerate(sweep_builds())}


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(workdir)
        goldens = {"cli-cold": record_cli(runner),
                   "euclidean-table": record_table(runner),
                   "hermitian-sweep": record_sweep(runner)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    for name, golden in goldens.items():
        with open(os.path.join(HERE, "golden", name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
