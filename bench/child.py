"""One round of one workload in a fresh process; `run.py` starts it.

    python3 bench/child.py WORKLOAD INPUT_FILE T0 CHECK [TRACE_FILE]

INPUT_FILE holds the seeded inputs as plain data (`inputs.py`).  T0 is
`time.monotonic()` in the parent just before it started this process (the
clock is system-wide on Linux), so `setup_s` covers interpreter start,
`import weylret`, reading the input file and building weylret objects
from it.  The timed region is the workload's list of operations and
nothing else.  The outputs are reduced to a digest, and with CHECK=1 they
are also checked against the oracles.  With TRACE_FILE the weylret
functions are wrapped before the inputs are built, the spans go to that
file and the per-layer metrics into the result.  The result is one JSON
line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    workload, input_file, t0, check = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    trace_file = argv[4] if len(argv) > 4 else None

    import weylret  # noqa: F401

    tracer = None
    if trace_file:
        import weylret.cli  # noqa: F401  (loaded so that its bindings get wrapped too)
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import workloads

    build, run, canon, check_outputs = workloads.WORKLOADS[workload]
    if workload == "cli" and tracer:
        run = workloads.run_cli_inprocess
    with open(input_file) as f:
        inputs = build(json.load(f))
    setup_s = time.monotonic() - t0

    start = time.perf_counter()
    out = run(inputs)
    wall_s = time.perf_counter() - start

    who = resource.RUSAGE_CHILDREN if workload == "cli" and not tracer else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    problems: list[str] = []
    digest = ""
    try:
        # a cli call that fails as a known fault counts in `failed`; any
        # other failed operation makes the round incorrect
        problems += workloads.score_cli(inputs, out) if workload == "cli" else out.errors
        canonical = canon(out)
        digest = hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()
        if check:
            problems += check_outputs(inputs, canonical)
    except Exception:  # a crash while checking is a failed check, reported in full
        problems.append(traceback.format_exc())
    finally:
        if workload == "cli":
            shutil.rmtree(inputs["workdir"], ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": out.attempted,
        "failed": out.failed,
        "known_faults": out.errors if workload == "cli" else [],
        "problems": problems[:20],
        "digest": digest,
    }
    if tracer:
        result["metrics"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
