"""One fresh interpreter of the benchmark; run.py starts it.

    worker.py RESULT import -
    worker.py RESULT cli SPANS OP ARGV...      run `selfdual` with ARGV
    worker.py RESULT inproc SPANS PLAN         run the ops listed in PLAN

SPANS names the NDJSON file for the spans, or is "-" for an untraced
run.  The worker writes a JSON RESULT with the monotonic time at which
``import selfdual`` completed, its peak resident memory, the speed
samples taken while it ran (speed.py) and, for ``inproc``, each op's
times, probes and output.  The parent compares outputs with the golden
files; the worker only reports them.
"""
import sys
import time

import selfdual

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import selfdual.cli  # noqa: E402
from speed import BOUNDARY_RUNS, Sampler, probe  # noqa: E402


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_op(op: dict) -> dict:
    kind = op["kind"]
    if kind == "table_pair":
        outcome = selfdual.table.run_table_pair(*op["args"])
        out = outcome.to_json()
        del out["seconds"]  # wall time, not output
        return out
    if kind == "build":
        result = getattr(selfdual, op["name"])(*op["args"])
        text = json.dumps(result.to_json()) + "\n"  # as `construct` prints
        with open(op["code_file"], "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                "construction": result.construction,
                "theorem": result.theorem,
                "n": result.code.n, "k": result.code.k,
                "verification": result.report.to_json()}
    if kind == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = selfdual.cli.main(["verify", op["code_file"]])
        return {"rc": rc, "stdout": buf.getvalue()}
    raise ValueError("unknown op kind %r" % kind)


def main(argv) -> int:
    result_path, mode, spans_path = argv[:3]
    out = {"imported": IMPORTED, "selfdual": selfdual.__file__}
    rc = 0
    tracer = None
    if spans_path != "-":
        import tracer as tracing
        tracer = tracing.install()
    if mode == "cli":
        if tracer is not None:
            tracer.op = int(argv[3])
        with Sampler() as sampler:
            rc = selfdual.cli.main(argv[4:])
            sys.stdout.flush()
            out["probes"], out["spent"] = sampler.take()
        out["rc"] = rc
    elif mode == "inproc":
        with open(argv[3], encoding="utf-8") as fh:
            plan = json.load(fh)
        ops = []
        out["ready"] = _clock()
        with Sampler() as sampler:
            for i, op in enumerate(plan):
                if tracer is not None:
                    tracer.op = i
                before = probe(BOUNDARY_RUNS)
                sampler.take()
                start = _clock()
                try:
                    output, error = _run_op(op), None
                except Exception:  # an op that raises is a failed op
                    output, error = None, traceback.format_exc()
                end = _clock()
                samples, spent = sampler.take()
                ops.append({"probes": [before, *samples], "spent": spent,
                            "start": start, "end": end,
                            "output": output, "error": error})
            out["probe"] = probe(BOUNDARY_RUNS)
        out["ops"] = ops
        out["done"] = _clock()
    if tracer is not None:
        out["cache"] = tracing.cache_counters()
        tracer.write(spans_path)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
