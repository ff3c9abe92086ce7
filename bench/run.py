"""The weylret benchmark.

    python3 bench/run.py --workload {tables,polytope,signed,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are drawn from the seed once
per run, before the first round (`inputs.py`), and written to
`.bench_out/inputs-<workload>-<seed>.json`.  Each round of a workload runs
in a fresh single-threaded Python process (`child.py`), so every round
starts with cold program caches and pays interpreter start, `import
weylret` and building weylret objects from that file inside `setup_s`.
Rounds repeat, one process at a time, while another round should still
end within S seconds; the first round also checks every output against
the oracles, and every later round must produce the same outputs (by
digest).

With --trace 0 the last line of stdout is the result with the end-to-end
metrics, each the median over the rounds.  With --trace 1 one untraced and
one traced round run, and the last line carries the per-layer metrics; the
line before it gives both wall times, which shows the tracing overhead.
Per-run records, input files and span files go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
WORKLOADS = ("tables", "polytope", "signed", "cli")
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("WEYLRET_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # str hashes seed set and dict layouts; fixing it makes counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """Start one round, wait for it and everything it started, and parse
    its result line."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), args[0], args[1], repr(t0), *args[2:]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round of {args[0]} did not finish in {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # nothing of the round may outlive it
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"round of {args[0]} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def import_time(env: dict) -> float:
    """Seconds to import weylret.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import weylret.cli; print(time.perf_counter() - t)"
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return float(p.stdout.strip())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src") / "weylret" / "__init__.py").is_file():
        print("error: run from the root of a weylret checkout (src/weylret is missing)", file=sys.stderr)
        return 2
    # byte-compile once, outside every timed region, so that no round pays
    # for compiling whatever PYTHONDONTWRITEBYTECODE says
    compileall.compile_dir("src", quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    import inputs

    input_file = OUT / f"inputs-{args.workload}-{args.seed}.json"
    input_file.write_text(json.dumps(inputs.MAKERS[args.workload](args.seed)))
    env = child_env()
    began = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - began)

    base = [args.workload, str(input_file)]
    rounds = []
    if args.trace:
        rounds.append(run_child(base + ["1"], env, left()))
        trace_file = OUT / f"spans-{args.workload}-{args.seed}.json.gz"
        traced = run_child(base + ["0", str(trace_file)], env, left())
        imports = sorted(import_time(env) for _ in range(3))
    else:
        # start another round only if it should end within the run's time,
        # judging by the last round, so that a run lasts about S seconds
        last = 0.0
        while not rounds or time.monotonic() - began + last <= args.seconds:
            t = time.monotonic()
            rounds.append(run_child(base + ["1" if not rounds else "0"], env, left()))
            last = time.monotonic() - t

    problems = [p for r in rounds for p in r["problems"]]
    digests = {r["digest"] for r in rounds}
    if args.trace and traced["digest"] not in digests:
        problems.append("the traced round produced other outputs than the untraced one")
    if len(digests) != 1:
        problems.append("rounds of the same inputs produced different outputs")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for fault in rounds[0]["known_faults"]:
        print(f"failed: {fault}", file=sys.stderr)

    if args.trace:
        import spans

        metrics = {name: metric(traced["metrics"].get(name, 0), unit)
                   for name, unit in spans.metric_units().items()}
        metrics["cli.import_s"] = metric(imports[1], "s")
        for name in traced["absent"]:
            print(f"absent: {name}", file=sys.stderr)
        print(f"wall_s untraced {rounds[0]['wall_s']:.4f} traced {traced['wall_s']:.4f}"
              f" overhead x{traced['wall_s'] / rounds[0]['wall_s']:.2f}")
        attempted = rounds[0]["attempted"] + traced["attempted"]
        failed = rounds[0]["failed"] + traced["failed"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(r["setup_s"] for r in rounds), "s"),
            "wall_s": metric(statistics.median(r["wall_s"] for r in rounds), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
        print(f"rounds {len(rounds)}: wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=rounds)
    (OUT / f"run-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
