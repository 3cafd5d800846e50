"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--label L]
    python3 perfbench/spread.py --seeds 1-10 --label L2 --against L

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
and reports for each end-to-end metric the median and the spread: the
third minus the first quartile (``statistics.quantiles(values, n=4)``)
over the median, next to the metric's bound from BENCHMARK.json and
the spread of the same times as measured, before scaling to the
reference host.  Raw values, simulated outcomes and digests go to
``perfbench/out/spread-<label>.json``.  With ``--against`` it also
compares with an earlier label: the ratio of the medians per metric,
and whether every seed's digest and simulated outcomes are identical.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_one(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / workload / f"result-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host": record["host"],
            "outcomes": record["outcomes"], "digest": record["digest"],
            "stamp": record["stamp"]}


def compare(now: dict, before: dict) -> None:
    print(f"\n{'workload':16s} {'metric':14s} {'median now/before':>18s}")
    for workload, metrics in now["spread"].items():
        if workload not in before["spread"]:
            continue
        for name, s in metrics.items():
            ratio = s["median"] / before["spread"][workload][name]["median"]
            print(f"{workload:16s} {name:14s} {ratio:18.4f}")
        old = {r["seed"]: r for r in before["runs"][workload]}
        same = [r["seed"] for r in now["runs"][workload]
                if r["seed"] in old
                and (r["digest"], r["outcomes"])
                == (old[r["seed"]]["digest"], old[r["seed"]]["outcomes"])]
        print(f"{workload:16s} identical digest and outcomes on seeds "
              f"{same} of {[r['seed'] for r in now['runs'][workload]]}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--label", default="latest")
    p.add_argument("--against", help="label of an earlier spread run")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, report = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            r = run_one(workload, seed, args.seconds)
            runs[workload].append(r)
            print(f"{workload} seed {seed}: failed {r['failed']}/"
                  f"{r['attempted']} " + " ".join(
                      f"{k}={v:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        report[workload] = {
            name: spread([r["metrics"][name] for r in runs[workload]])
            for name in bounds
        }
        for name, s in report[workload].items():
            if name in runs[workload][0]["host"]:
                s["host_spread"] = spread(
                    [r["host"][name] for r in runs[workload]])["spread"]
    print(f"\n{'workload':16s} {'metric':14s} {'median':>12s} {'spread':>8s}"
          f" {'bound':>6s} {'as measured':>12s}")
    for workload, metrics in report.items():
        for name, s in metrics.items():
            host = (f"{s['host_spread']:12.4f}" if "host_spread" in s
                    else f"{'-':>12s}")
            print(f"{workload:16s} {name:14s} {s['median']:12.5g} "
                  f"{s['spread']:8.4f} {bounds[name]:6.2f} {host}")
    doc = {"args": vars(args), "runs": runs, "spread": report}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spread-{args.label}.json").write_text(json.dumps(doc, indent=1))
    if args.against:
        compare(doc, json.loads(
            (OUT / f"spread-{args.against}.json").read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
