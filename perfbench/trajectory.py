"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/trajectory.py --runs 10 --out perfbench/results/BENCH_<commit>.json

Runs one fresh process per (workload, seed), one after another, from the root
of a checkout.  For each end-to-end metric it reports the median, quartiles
and the spread (third minus first quartile, over the median), also of the raw
times before the host-speed scaling, and compares the spread with a third of
the bound in BENCHMARK.json.  Each workload is also run
traced twice on one seed, and the per-layer counts of the two runs must agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(HERE, "out", name), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="untraced runs (seeds 1..runs) per workload")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    point = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for w in names:
        results, records = [], []
        for seed in range(1, args.runs + 1):
            result, record = run(w, seed, seconds, 0)
            results.append(result)
            records.append(record)
            print(w, seed, json.dumps(result), flush=True)
        metrics = {}
        for m in results[0]["metrics"]:
            s = summary([r["metrics"][m]["value"] for r in results])
            s["unit"] = results[0]["metrics"][m]["unit"]
            s["bound"] = bounds[m]
            if m in records[0].get("raw", {}):
                s["raw_spread"] = summary([r["raw"][m] for r in records])["spread"]
            s["within_third_of_bound"] = s["spread"] <= bounds[m] / 3
            steady &= s["within_third_of_bound"] or m == "setup_s"
            metrics[m] = s
            print(f"  {w} {m}: median {s['median']:.6g} {s['unit']}, spread "
                  f"{s['spread']:.4f} (raw {s.get('raw_spread', s['spread']):.4f}, "
                  f"bound {bounds[m]})", flush=True)
        traced = [run(w, 1, seconds, 1) for _ in range(2)]
        layer = {m: [r["metrics"][m]["value"] for r, _ in traced]
                 for m in traced[0][0]["metrics"]}
        counts_equal = all(len(set(v)) == 1 for m, v in layer.items()
                           if traced[0][0]["metrics"][m]["unit"] == "count")
        print(f"  {w} traced counts identical: {counts_equal}", flush=True)
        point["workloads"][w] = {
            "end_to_end": metrics,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
            "failures": records[0]["failures"],
            "per_layer": layer,
            "per_layer_counts_identical": counts_equal,
            "runs": records,
        }
    point["provenance"] = records[0]["provenance"]
    point["steady"] = steady
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")


if __name__ == "__main__":
    main()
