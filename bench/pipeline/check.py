"""Drive the pipeline benchmark across workloads and seeds.

  smoke     run every workload on tiny graphs, untraced and traced, for
            seeds 1 and 2, and check that every check passes, that the
            traced and untraced runs give the same digests, that every
            metric named in BENCHMARK.json is reported, and that traced
            runs write their spans:
              python3 check.py smoke --exe pipeline.exe --benchmark BENCHMARK.json
  baseline  run BENCHMARK.json's command as a regression check would: for
            each workload, two untraced passes over seeds 1-10 and one
            traced pass over seeds 1 and 2; report each metric's
            median, quartiles and spread, check the spreads and the
            drift between the two passes against the bounds, and write
            the whole record as JSON. From the repository root:
              python3 bench/pipeline/check.py baseline --out bench/pipeline/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def run(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return out, lines, result


def digests(lines):
    return sorted(line for line in lines if " run_digest." in line)


def smoke(args, tmp):
    bench = json.load(open(args.benchmark))
    names = {
        False: [m["name"] for m in bench["end_to_end"]],
        True: [m["name"] for m in bench["per_layer"]],
    }
    problems = []
    for seed in (1, 2):
        for workload in [w["name"] for w in bench["workloads"]]:
            seen = {}
            for trace in (False, True):
                tag = f"{workload} seed {seed} trace {int(trace)}"
                spans = os.path.join(tmp, f"{workload}_{seed}.tsv")
                out, lines, result = run(
                    [os.path.abspath(args.exe), "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(int(trace)), "--smoke"]
                    + (["--spans", spans] if trace else []))
                if trace and (not os.path.exists(spans)
                              or "\tcongest.round\t" not in open(spans).read()):
                    problems.append(f"{tag}: no round spans written")
                if result is None:
                    problems.append(f"{tag}: exit {out.returncode}: {out.stderr.strip()}")
                    continue
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{tag}: checks failed: {out.stderr.strip()}")
                if sorted(result["metrics"]) != sorted(names[trace]):
                    problems.append(f"{tag}: metrics differ from BENCHMARK.json")
                printed = {line.split()[1] for line in lines[:-1]}
                problems += [f"{tag}: {m} not printed" for m in names[trace] if m not in printed]
                seen[trace] = digests(lines)
            if len(seen) == 2 and seen[False] != seen[True]:
                problems.append(f"{workload} seed {seed}: traced digests differ from untraced")
    for p in problems:
        print("FAIL", p)
    print(f"pipeline smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def baseline(args):
    bench = json.load(open("BENCHMARK.json"))
    seeds = list(range(1, 11))
    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "ocaml": subprocess.run(["ocamlopt", "-version"],
                                         capture_output=True, text=True).stdout.strip()},
        "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {},
    }
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        entry = {}
        for label, trace, seed_list in (("untraced_1", 0, seeds), ("untraced_2", 0, seeds),
                                         ("traced", 1, seeds[:2])):
            metrics = {}
            for seed in seed_list:
                out, _, result = run(bench["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(trace)])
                if result is None or not result["correct"]:
                    print(f"FAIL {w} seed {seed} trace {trace}: {out.stderr.strip()[-400:]}")
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    metrics.setdefault(name, []).append(m["value"])
            entry[label] = {name: summary(v) if len(v) > 1 else {"values": v}
                            for name, v in metrics.items()}
            print(f"{w} {label} done", flush=True)
        for m in bench["end_to_end"]:
            first, second = entry["untraced_1"][m["name"]], entry["untraced_2"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (second["median"] - first["median"]) / first["median"]
            for label, s in (("untraced_1", first), ("untraced_2", second)):
                if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                    print(f"SPREAD {w} {m['name']} {label}: {s['spread']:.4f} > {m['bound']}")
                    ok = False
            if drift > m["bound"]:
                print(f"DRIFT {w} {m['name']}: {drift:.4f} > {m['bound']}")
                ok = False
            print(f"  {m['name']:14s} median {first['median']:.6g} / {second['median']:.6g}"
                  f"  spread {first['spread']:.4f} / {second['spread']:.4f}  (bound {m['bound']})")
        record["workloads"][w] = entry
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("smoke")
    s.add_argument("--exe", required=True)
    s.add_argument("--benchmark", required=True)
    b = sub.add_parser("baseline")
    b.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.mode == "smoke":
        with tempfile.TemporaryDirectory() as tmp:
            sys.exit(smoke(args, tmp))
    sys.exit(baseline(args))


if __name__ == "__main__":
    main()
