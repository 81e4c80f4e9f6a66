#!/usr/bin/env python3
"""Alternated parent/change runs of the gated benchmark rows, as one record.

    python3 tools/bench_pairs.py -parent <checkout> -change <checkout> \
        -o BENCH_<n>.json [-pairs 10] [-traced 1] [-seed 1601] [-workloads a,b]

Every run is `bash benchmark/run.sh` in the named checkout, so each side
builds and runs its own tree with its own benchmark code. Per gated workload:
`pairs` untraced pairs (seed, seed+1, ...), the side that runs first
alternating from pair to pair, then `traced` traced runs a side, alternated the
same way (per-layer metrics are their median and quartiles). A run the benchmark
marks invalid (generator late, processor time withheld) is run again after a
pause, six tries at most, and never folded in — the rule benchmark/report.go
applies to its own sets. The record holds the host, both sides as set files
(the shape `dprbench -compare` reads), every pair's values, and per metric
the number of pairs the change won.

    python3 tools/bench_pairs.py -split BENCH_<n>.json <dir>

writes <dir>/parent.json and <dir>/change.json for
`cd benchmark && go run . -compare <dir>/parent.json <dir>/change.json`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

VALID_TRIES, VALID_PAUSE_S = 6, 15


def run(checkout, workload, seed, seconds, traced):
    """One benchmark run in its own process; returns the full result dict."""
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        for attempt in range(1, VALID_TRIES + 1):
            subprocess.run(
                ["bash", "benchmark/run.sh", "-workload", workload, "-seed", str(seed),
                 "-seconds", str(seconds), "-trace", "1" if traced else "0", "-result", path],
                cwd=checkout, check=True, stdout=subprocess.DEVNULL)
            with open(path) as f:
                res = json.load(f)
            if not res.get("invalid"):
                res["discarded"] = attempt - 1
                return res
            print(f"  invalid ({res['invalid'][0]}); again in {VALID_PAUSE_S}s", flush=True)
            time.sleep(VALID_PAUSE_S)
        sys.exit(f"{workload} seed {seed} in {checkout}: no valid run in {VALID_TRIES} tries")
    finally:
        os.unlink(path)


def stat(unit, values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"unit": unit, "median": statistics.median(values), "q1": q[0], "q3": q[2], "values": values}


def fold(rec, res):
    rec["correct"] = rec["correct"] and res["correct"]
    rec["attempted"] += res["attempted"]
    rec["failed"] += res["failed"]
    rec["discarded_invalid_runs"] += res["discarded"]
    for k, v in (res.get("checks") or {}).items():
        rec["checks"][k] = rec["checks"].get(k, 0) + v


def measure(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        decl = json.load(f)
    units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
    better = {m["name"]: m["better"] for m in decl["end_to_end"]}
    end_to_end = [m["name"] for m in decl["end_to_end"]]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in decl["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    commit = {s: subprocess.run(["git", "rev-parse", "HEAD"], cwd=d, capture_output=True, text=True).stdout.strip()
              for s, d in sides.items()}
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=args.change, capture_output=True, text=True).stdout
    sets = {s: {"seed": args.seed, "seconds": args.seconds, "repeat": args.pairs, "workloads": {}} for s in sides}
    pairs, wins = {}, {}
    for w in workloads:
        recs = {s: {"correct": True, "attempted": 0, "failed": 0, "checks": {}, "end_to_end": {},
                    "per_layer": {}, "info": {}, "trace_info": {}, "discarded_invalid_runs": 0} for s in sides}
        values = {s: {m: [] for m in end_to_end} for s in sides}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for s in order:
                res = run(sides[s], w, args.seed + i, args.seconds, False)
                fold(recs[s], res)
                recs[s]["info"] = res.get("info") or {}
                for m in end_to_end:
                    values[s][m].append(res["metrics"][m])
                print(f"{w} pair {i + 1}/{args.pairs} {s:6s} " +
                      " ".join(f"{m}={res['metrics'][m]:.5g}" for m in end_to_end), flush=True)
        layers = {s: {} for s in sides}
        for i in range(args.traced):
            for s in (["parent", "change"] if i % 2 == 0 else ["change", "parent"]):
                res = run(sides[s], w, args.seed + i, args.seconds, True)
                fold(recs[s], res)
                recs[s]["trace_info"] = res.get("info") or {}
                for m, v in res["metrics"].items():
                    if m not in end_to_end:
                        layers[s].setdefault(m, []).append(v)
                print(f"{w} traced {i + 1}/{args.traced} {s}", flush=True)
        for s in sides:
            recs[s]["per_layer"] = {m: stat(units.get(m, ""), v) for m, v in sorted(layers[s].items())}
            for m in end_to_end:
                recs[s]["end_to_end"][m] = stat(units[m], values[s][m])
            sets[s]["workloads"][w] = recs[s]
        pairs[w] = {m: list(zip(values["parent"][m], values["change"][m])) for m in end_to_end}
        wins[w] = {}
        for m in end_to_end:
            sign = 1 if better[m] == "higher" else -1
            won = sum(1 for p, c in pairs[w][m] if sign * (c - p) > 0)
            lost = sum(1 for p, c in pairs[w][m] if sign * (c - p) < 0)
            par = recs["parent"]["end_to_end"][m]
            wins[w][m] = {"change_won": won, "change_lost": lost,
                          "median_move": recs["change"]["end_to_end"][m]["median"] - par["median"],
                          "parent_iqr": par["q3"] - par["q1"]}
    sh = lambda *cmd: subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    record = {
        "host": {"nproc": os.cpu_count(), "go": sh("go", "version"), "kernel": sh("uname", "-sr")},
        "seconds": args.seconds, "first_seed": args.seed, "pairs_per_workload": args.pairs,
        "traced_runs_per_side": args.traced,
        "alternation": "odd pairs run the parent first, even pairs the change",
        "parent_commit": commit["parent"], "change_commit": commit["change"],
        "change_worktree_dirty": bool(dirty.strip()),
        "sets": sets, "pairs_parent_change": pairs, "claim_check": wins,
    }
    with open(args.o, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for w in workloads:
        for m in end_to_end:
            x = wins[w][m]
            print(f"{w:16s} {m:14s} parent {sets['parent']['workloads'][w]['end_to_end'][m]['median']:.5g} "
                  f"change {sets['change']['workloads'][w]['end_to_end'][m]['median']:.5g} "
                  f"won {x['change_won']} lost {x['change_lost']} parent IQR {x['parent_iqr']:.4g}")


def split(path, outdir):
    with open(path) as f:
        record = json.load(f)
    os.makedirs(outdir, exist_ok=True)
    for side, s in record["sets"].items():
        s = dict(s, host={"nproc": record["host"]["nproc"], "gomaxprocs": record["host"]["nproc"],
                          "go": record["host"]["go"], "commit": record[side + "_commit"]}, setup={})
        with open(os.path.join(outdir, side + ".json"), "w") as f:
            json.dump(s, f, indent=1)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "-split":
        split(sys.argv[2], sys.argv[3])
        sys.exit(0)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-parent", required=True)
    ap.add_argument("-change", required=True)
    ap.add_argument("-o", required=True)
    ap.add_argument("-pairs", type=int, default=10)
    ap.add_argument("-traced", type=int, default=1)
    ap.add_argument("-seed", type=int, default=1601)
    ap.add_argument("-seconds", type=float, default=20)
    ap.add_argument("-workloads", default="")
    measure(ap.parse_args())
