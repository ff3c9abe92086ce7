"""Steadiness check: two sets of benchmark runs of one commit.

    python3 bench/steady.py

Run from the root of a checkout.  Each set runs every workload of
BENCHMARK.json once per seed, ten seeds a set: seeds 1..10 in the first
set and 1001..1010 in the second, workloads interleaved so that a slow
spell of the machine falls on all of them.  For each workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile range over median) and whether the sets agree within the
metric's bound: each spread within the bound, the second median within
the bound of the first in either direction, and the same share of failed
operations in both sets.  The full record goes to
.bench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
SEEDS = (range(1, RUNS + 1), range(1001, 1001 + RUNS))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict = {w: [[] for _ in SEEDS] for w in workloads}
    for k, seeds in enumerate(SEEDS):
        for seed in seeds:
            for w in workloads:
                r = one_run(w, seed, spec["run_seconds"])
                runs[w][k].append(dict(r, seed=seed))
                vals = " ".join(f"{n}={m['value']:.4f}" for n, m in r["metrics"].items())
                print(f"set {k + 1} seed {seed} {w}: correct={r['correct']} "
                      f"{r['failed']}/{r['attempted']} failed {vals}", flush=True)

    ok = True
    rows = []
    print(f"\n{'workload':9} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = runs[w]
        shares = {(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets}
        share_ok = len({f / a for f, a in shares}) == 1 and all(r["correct"] for s in sets for r in s)
        for name, m in bounds.items():
            first = None
            for k, s in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in s]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                good = abs(med - first) / first <= m["bound"] and spread <= m["bound"]
                ok &= good
                rows.append({"workload": w, "metric": name, "set": k + 1, "median": med, "q1": q1,
                             "q3": q3, "spread": spread, "bound": m["bound"], "agree": good})
                print(f"{w:9} {name:12} {k + 1:>3} {med:10.4f} {q1:10.4f} {q3:10.4f}"
                      f" {spread:7.3f} {m['bound']:6.2f}  {'ok' if good else 'NO'}")
        print(f"{w:9} failed share {'the same in both sets' if share_ok else 'DIFFERS or incorrect'}: {sorted(shares)}")
        ok &= share_ok
    Path(".bench_out").mkdir(exist_ok=True)
    Path(".bench_out/steady.json").write_text(json.dumps({"rows": rows, "runs": runs}, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
