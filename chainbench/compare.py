"""Run two sets of benchmark runs and judge them against BENCHMARK.json's bounds.

    python3 chainbench/compare.py --workload reference-5k --runs 10
    python3 chainbench/compare.py --workload reference-5k --runs 10 --one-seed

Run i of each set uses seed ``first_seed + i``, so both sets measure the same
ten datasets; with ``--one-seed`` every run uses ``first_seed``, and the
figures show timing noise alone. Each run is ``chainbench/run.py`` in a child
process, one at a time. For every end-to-end metric and set the report gives
the median, the quartiles (as ``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median. It then
checks what a regression gate needs of a steady benchmark:

- every spread except that of setup_s is within the metric's bound (setup_s
  guards against work moved into set-up, so only its median is judged);
- the second median is not worse than the first by more than the bound;
- the share of failed operations is exactly the same in both sets.

Raw results of each set are written as JSON to ``chainbench/out/compare``;
exit code 1 means a check above did not hold or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
from fractions import Fraction
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900  # a run must end within 180 s; this only stops a hung one
OUT_DIR = os.path.join(HERE, "out", "compare")


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_set(workload: str, seeds: List[int], seconds: int) -> List[dict]:
    results = []
    for seed in seeds:
        argv = [sys.executable, os.path.join(HERE, "run.py")] + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False, timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            results.append({"seed": seed, "exit_code": "timeout"})
            print("  seed %d: timed out" % seed, flush=True)
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        result["seed"] = seed
        result["exit_code"] = proc.returncode
        print(
            "  seed %d: exit %d, %s"
            % (
                seed,
                proc.returncode,
                ", ".join(
                    "%s=%.4g" % (k, v["value"]) for k, v in result.get("metrics", {}).items()
                ),
            ),
            flush=True,
        )
        results.append(result)
    return results


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def judge(spec: dict, sets: List[List[dict]]) -> List[str]:
    """Print the summary of two sets; return the problems found."""
    problems = []
    for k, results in enumerate(sets):
        for r in results:
            if r.get("exit_code") != 0 or not r.get("correct"):
                problems.append("set %d seed %s: run failed" % (k + 1, r.get("seed")))
    summaries = []
    for results in sets:
        ok = [r for r in results if "metrics" in r]
        summaries.append(
            {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in ok])
                for m in spec["end_to_end"]
            }
            if len(ok) >= 2
            else {}
        )
    print("%-28s %-6s %s" % ("metric", "bound", "  ".join(
        "set%d median [q1, q3] spread" % (k + 1) for k in range(2))))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells = []
        for k, summary in enumerate(summaries):
            s = summary.get(name)
            if s is None:
                continue
            cells.append("%.4g [%.4g, %.4g] %.1f%%" % (s["median"], s["q1"], s["q3"], 100 * s["spread"]))
            if name != "setup_s" and s["spread"] > bound:
                problems.append("set %d %s: spread %.3f > bound %.3f" % (k + 1, name, s["spread"], bound))
        print("%-28s %-6.3g %s" % (name, bound, "   ".join(cells)))
        if name in summaries[0] and name in summaries[1]:
            first, second = summaries[0][name]["median"], summaries[1][name]["median"]
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            if worse > bound:
                problems.append("%s: second median worse by %.3f > bound %.3f" % (name, worse, bound))
    # every run must fail exactly the same share of its operations
    shares = [
        [Fraction(r["failed"], r["attempted"]) for r in results if r.get("attempted")]
        for results in sets
    ]
    print("failed/attempted per run: %s" % "; ".join(
        ", ".join(str(share) for share in set_shares) for set_shares in shares))
    if len(set(shares[0] + shares[1])) > 1:
        problems.append("failed shares differ between runs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--one-seed", action="store_true", help="every run uses --first-seed")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    os.makedirs(OUT_DIR, exist_ok=True)
    seeds = [args.first_seed + (0 if args.one_seed else i) for i in range(args.runs)]
    sets = []
    for k in range(2):
        print("set %d of %s, seeds %s" % (k + 1, args.workload, seeds), flush=True)
        results = run_set(args.workload, seeds, args.seconds or spec["run_seconds"])
        path = os.path.join(OUT_DIR, "%s-set%d.json" % (args.workload, k + 1))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        sets.append(results)
    problems = judge(spec, sets)
    for problem in problems:
        print("PROBLEM: " + problem)
    print("steady within bounds" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
