#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Runs each workload once per seed (trace 0) and prints, for every
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of their median. A spread
above a third of the metric's bound is flagged. --out saves the set as
JSON; --compare A.json B.json compares two saved sets in both directions
and flags a median that is worse in either by more than the bound.

With --trace 1 it instead runs each workload twice on one seed and
checks that every simulation-derived per-layer metric repeats exactly;
the Go allocation counts are printed with their relative difference.

Run it from the root of the checkout:

    python3 perfbench/steadiness.py --seeds 1-10 --out set-a.json
    python3 perfbench/steadiness.py --compare set-a.json set-b.json
    python3 perfbench/steadiness.py --seeds 1 --trace 1
"""
import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics computed only from the simulation's own outputs: the
# serial engine makes them repeat exactly for a seed.
SIMULATED = [
    "sensor.near_target_share",
    "radio.frames_per_sim_s", "radio.delivery_ratio", "radio.collision_share", "radio.link_util",
    "mote.overload_drops_per_sim_s",
    "group.hb_frames_per_sim_s", "group.hb_loss",
    "track.trace_frames_per_sim_s",
    "directory.frames_per_sim_s", "directory.answer_sim_s",
    "transport.frames_per_sim_s", "transport.reply_sim_s", "transport.reply_pct",
    "routing.report_frames_per_sim_s", "routing.report_delivery_pct",
    "simtime.events_per_sim_s",
    "obs.events_per_sim_s",
]
# Go allocation counts: they nearly repeat (map hashing is seeded at random).
ALLOCATIONS = ["setup.allocs_per_mote", "setup.attach_bytes_per_mote", "runtime.allocs_per_sim_s"]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    """Returns the result line and the manifest line of one run."""
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("manifest "))


def check_repeats(w, seed, seconds):
    a = run(w, seed, seconds, 1)[0]["metrics"]
    b = run(w, seed, seconds, 1)[0]["metrics"]
    ok = True
    for name in SIMULATED:
        x, y = a[name]["value"], b[name]["value"]
        same = x == y
        ok &= same
        print(f"{w:18} {name:34} {x:14.9g} {'same' if same else f'DIFFERENT {y:.9g}'}")
    for name in ALLOCATIONS:
        x, y = a[name]["value"], b[name]["value"]
        print(f"{w:18} {name:34} {x:14.9g} rel. difference {abs(y - x) / x if x else 0:.2e}")
    return ok


def measure(w, seeds, seconds, bounds):
    """Returns each metric's median, spread and values, and the host's
    calibration loop time of every run (reported, not gated)."""
    values = {}
    calibration = []
    failed = 0
    for s in seeds:
        res, manifest = run(w, s, seconds, 0)
        failed += res["failed"]
        calibration.append(manifest["calibration_s"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{w} seed {s}: failed={res['failed']}/{res['attempted']} "
              f"calibration_s={manifest['calibration_s']:.4g} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
    record = {}
    for name, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        record[name] = {"median": med, "spread": spread, "values": vs}
        flag = "" if spread < bounds[name] / 3 else "  > bound/3"
        print(f"{w:18} {name:22} median {med:12.6g} spread {spread:7.4f} "
              f"bound {bounds[name]:.2f}{flag}")
    print(f"{w}: {failed} failed ops over {len(seeds)} runs, "
          f"median calibration_s {statistics.median(calibration):.4g}", flush=True)
    return record, calibration


def compare(a, b, bench):
    """Prints, per metric, how much worse each set's median is than the other's."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    a, b = a["metrics"], b["metrics"]
    for w in sorted(a):
        for name in sorted(a[w]):
            ma, mb = a[w][name]["median"], b[w][name]["median"]
            sign = 1 if better[name] == "lower" else -1
            b_worse, a_worse = sign * (mb - ma) / ma, sign * (ma - mb) / mb
            bad = max(b_worse, a_worse) > bounds[name]
            ok &= not bad
            print(f"{w:18} {name:22} A {ma:12.6g} B {mb:12.6g} B worse by {b_worse:+.3f} "
                  f"A worse by {a_worse:+.3f} bound {bounds[name]:.2f}{'  > bound' if bad else ''}")
    return ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="save the set's values as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved sets")
    args = ap.parse_args()
    if args.compare:
        a, b = (json.load(open(f)) for f in args.compare)
        sys.exit(0 if compare(a, b, bench) else 1)
    seeds = parse_seeds(args.seeds)
    if args.trace:
        ok = all([check_repeats(w, seeds[0], bench["run_seconds"]) for w in args.workloads.split(",")])
        sys.exit(0 if ok else 1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"metrics": {}, "calibration_s": {}}
    for w in args.workloads.split(","):
        record["metrics"][w], record["calibration_s"][w] = measure(w, seeds, bench["run_seconds"], bounds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
