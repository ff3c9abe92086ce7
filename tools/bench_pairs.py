"""Side-by-side benchmark runs of two checkouts, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_13.json \
        --pairs tables=8 --pairs signed=3 --first-seed 1301 \
        [--claim tables:wall_s] [--traced tables:1] [--what TEXT]

PARENT_DIR and CHANGE_DIR are checkouts of the two commits, for example
made with `git clone` or `git archive`.  For every pair this runs the
unchanged `bench/run.py --workload W --seed S --seconds T --trace 0` once
in each checkout, one process at a time, alternating which side goes
first from one pair to the next, so that a drift of the machine's speed
falls on both sides alike.  T is `run_seconds` of the checkouts'
BENCHMARK.json.  Both sides must run the same harness: the sha256 over
every file under `bench/` (byte-compiled files aside) and BENCHMARK.json
must agree, or nothing runs, and the file records it.  Seeds count up
from --first-seed, one per pair, across the workloads in the order given.
Two checkouts of the same commit give an A/A run, which shows how far the
alternation leaves the two sides apart when nothing differs.

For each workload the file holds, per side and per end-to-end metric
(`wall_s`, `setup_s`, `peak_rss_mb`), the runs and their median, first
and third quartile (each run's value is already run.py's median over its
rounds); the rounds, `correct`, `attempted` and `failed` of every run; how
many pairs the change won per metric (lower reads better, ties count for
neither); and whether both sides produced the same output digests at every
seed.  --claim adds a verdict for one workload and metric: the change must
win at least nine pairs in ten and improve the median by more than the
parent's interquartile range.  --traced adds the per-layer metrics of
TRACED_ROUNDS traced runs (`--trace 1`) of one workload and seed per side.

The file is rewritten after every pair, so an interrupted session keeps
the pairs it finished.  Needs only the standard library; run it from any
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
TRACED_ROUNDS = 6


def run_seconds(checkout: Path) -> float:
    """The benchmark's run length, as the checkout's BENCHMARK.json sets it."""
    return float(json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"])


def harness_sha256(checkout: Path) -> str:
    """One sha256 over the benchmark's harness in a checkout: the path,
    length and bytes of every file under bench/ except byte-compiled ones,
    in path order, then BENCHMARK.json."""
    files = sorted(
        f for f in (checkout / "bench").rglob("*")
        if f.is_file() and "__pycache__" not in f.parts and f.suffix != ".pyc"
    )
    h = hashlib.sha256()
    for f in [*files, checkout / "BENCHMARK.json"]:
        data = f.read_bytes()
        h.update(f"{f.relative_to(checkout).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def revision(checkout: Path) -> str:
    """The commit a checkout holds, or its path when it is no git work tree."""
    p = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else str(checkout)


def machine(checkout: Path) -> dict:
    p = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                       capture_output=True, text=True, cwd=checkout)
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": p.stdout.strip() or None,
        "platform": platform.platform(),
    }


def command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in a checkout: its result line, plus the digests
    of its rounds from the record it leaves in .bench_out/."""
    argv = command(workload, seed, seconds, trace)
    p = subprocess.run([sys.executable, *argv[1:]], capture_output=True, text=True,
                       cwd=checkout, timeout=3 * seconds + 300)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {p.returncode}:\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".bench_out" / f"run-{workload}-{seed}-{trace}.json").read_text())
    result["digests"] = sorted({r["digest"] for r in record["rounds"]})
    result["rounds"] = len(record["rounds"])
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = med
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def side_block(runs: list[dict]) -> dict:
    block = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in METRICS}
    block["rounds"] = [r["rounds"] for r in runs]
    block["correct"] = all(r["correct"] for r in runs)
    block["attempted"] = sum(r["attempted"] for r in runs)
    block["failed"] = sum(r["failed"] for r in runs)
    return block


def workload_block(workload: str, seeds: list[int], seconds: float,
                   pairs: list[dict[str, dict]], firsts: list[str]) -> dict:
    block = {
        "seeds": seeds,
        "commands": [" ".join(command(workload, s, seconds, 0)) for s in seeds],
        "first": firsts,
        "pairs": len(pairs),
    }
    for side in SIDES:
        block[side] = side_block([p[side] for p in pairs])
    block["change_won"] = {
        m: sum(p["change"]["metrics"][m]["value"] < p["parent"]["metrics"][m]["value"] for p in pairs)
        for m in METRICS
    }
    block["digests_equal"] = all(p["parent"]["digests"] == p["change"]["digests"] for p in pairs)
    return block


def claim(workloads: dict, spec: str) -> dict:
    name, metric = spec.split(":")
    block = workloads[name]
    parent, change = block["parent"][metric], block["change"][metric]
    won = block["change_won"][metric]
    iqr = parent["q3"] - parent["q1"]
    return {
        "workload": name,
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "change_pct": round(100 * (change["median"] - parent["median"]) / parent["median"], 1),
        "parent_iqr": round(iqr, 4),
        "won": f"{won}/{block['pairs']}",
        "met": 10 * won >= 9 * block["pairs"] and parent["median"] - change["median"] > iqr,
    }


def traced(dirs: dict[str, Path], spec: str, seconds: float) -> dict:
    name, seed = spec.split(":")
    out = {"command": " ".join(command(name, int(seed), seconds, 1)),
           "note": "separate traced rounds, alternating sides; self times swing with the machine,"
                   " so every traced round is listed"}
    values: dict[str, dict[str, list]] = {side: {} for side in SIDES}
    for k in range(TRACED_ROUNDS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            r = run(dirs[side], name, int(seed), seconds, 1)
            for metric, m in r["metrics"].items():
                values[side].setdefault(metric, []).append(round(m["value"], 4))
    for side in SIDES:
        out[side] = values[side]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                    help="run N pairs of a workload; repeat for more workloads")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims to improve")
    ap.add_argument("--traced", metavar="WORKLOAD:SEED", help="also compare traced rounds of one seed")
    ap.add_argument("--what", default="", help="one line on what the change does")
    args = ap.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, d in dirs.items():
        if not (d / "bench" / "run.py").is_file():
            ap.error(f"{side} checkout {d} has no bench/run.py")
    harness, other = (harness_sha256(d) for d in dirs.values())
    if harness != other:
        ap.error(f"the checkouts run different harnesses (bench/ and BENCHMARK.json):"
                 f" parent {harness}, change {other}")
    seconds = run_seconds(dirs["parent"])
    plan = []
    seed = args.first_seed
    for spec in args.pairs:
        name, _, count = spec.partition("=")
        plan.append((name, list(range(seed, seed + int(count)))))
        seed += int(count)

    doc = {
        "what": args.what,
        "machine": machine(dirs["change"]),
        "parent": revision(dirs["parent"]),
        "change": revision(dirs["change"]),
        "harness": "bench/run.py and BENCHMARK.json of each checkout, run by tools/bench_pairs.py;"
                   " each side runs in its own checkout, with its own .bench_out/",
        "harness_sha256": harness,
        "command": f"python3 bench/run.py --workload {{workload}} --seed {{seed}}"
                   f" --seconds {seconds:g} --trace 0",
        "order": "one pair per seed, run back to back, one process at a time; the side that ran"
                 " first alternates from pair to pair, starting with the parent, and each"
                 " workload's 'first' lists it",
        "stats": "each run's metric is run.py's median over its rounds; median, q1 and q3 are over"
                 " the runs of one side (statistics.quantiles, inclusive method); a pair is won"
                 " when the change's run reads lower, ties count for neither",
        "workloads": {},
    }
    k = 0
    for name, seeds in plan:
        pairs, firsts = [], []
        for s in seeds:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            pair = {side: run(dirs[side], name, s, seconds, 0) for side in order}
            pairs.append(pair)
            firsts.append(order[0])
            print(f"{name} seed {s}: wall_s parent {pair['parent']['metrics']['wall_s']['value']:.4f}"
                  f" change {pair['change']['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            doc["workloads"][name] = workload_block(name, seeds[: len(pairs)], seconds, pairs, firsts)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim:
        doc["claim"] = claim(doc["workloads"], args.claim)
    if args.traced:
        doc["traced"] = traced(dirs, args.traced, seconds)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
