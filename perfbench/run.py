#!/usr/bin/env python3
"""Scenario benchmark: four registry scenarios, timed end to end and traced per layer.

    python3 perfbench/run.py --workload te-cascade --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds `perfbench` (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
process per measurement:

* `--trace 0` measures K scenario instances (instance seeds `seed`,
  `seed + 1000`, ...), one `perfbench run` process each, cycling over
  them again until `--seconds` have passed, and re-runs the first at one
  thread to check the determinism contract. It reports the medians of
  `wall_s`, `setup_s` and `peak_rss_mb`.
* `--trace 1` runs every instance untraced once, then through the traced
  replay at `threads = nproc` and at one thread, and reports per-layer
  busy times and work counters summed over the instances.

Every report is digest-checked: against `pinned.txt` where the instance
seed is pinned, and always across repeats and thread counts. The last
stdout line is the JSON result; run metadata and a readable table come
before it. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Instance seeds are `seed + STRIDE * i`: the scenarios derive their RNG
# streams from seed + 0 ... seed + 90, so instances never share one.
STRIDE = 1000

# Instances per run. Each instance is a different topology sample; a run
# measures enough of them that the median settles across seeds.
INSTANCES = {
    "te-cascade": 32,
    "probe-bias": 20,
    "generator-matrix": 16,
    "ablations": 28,
}

LAYERS = [
    "hot_sim.te",
    "hot_sim.cascade",
    "hot_sim.traffic",
    "hot_sim.probe",
    "hot_metrics.hierarchy",
    "hot_metrics.bias",
    "hot_metrics.spectral",
    "hot_metrics.report_rest",
    "hot_core.buyatbulk.greedy",
    "hot_core.generators",
    "hot_baselines.generate",
    "hot_graph.csr",
]

# Layers whose entry points take a thread count: they also get a
# single-thread busy time.
THREADED = [
    "hot_sim.te",
    "hot_sim.cascade",
    "hot_sim.traffic",
    "hot_sim.probe",
    "hot_metrics.hierarchy",
    "hot_metrics.bias",
]

COUNTERS = [
    ("hot_sim.te.rounds", "count"),
    ("hot_sim.cascade.rounds", "count"),
    ("hot_sim.cascade.failed_links", "count"),
    ("hot_sim.cascade.sources_rerouted", "count"),
    ("hot_sim.traffic.sources", "count"),
    ("hot_sim.probe.probes", "count"),
    ("hot_sim.probe.hops", "count"),
    ("hot_metrics.hierarchy.brandes_sources", "count"),
    ("hot_metrics.bias.brandes_sources", "count"),
    ("hot_metrics.spectral.nodes", "count"),
    ("hot_metrics.spectral.dense_bytes", "bytes"),
    ("hot_core.buyatbulk.greedy.moves", "count"),
    ("hot_core.buyatbulk.greedy.candidate_pairs", "count"),
]

CALL_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Build output goes to stderr: stdout ends with the result line.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def call(binary, command, workload, seed, threads):
    """One measurement process; its JSON line, or None if it failed."""
    cmd = [str(binary), command, "--workload", workload,
           "--seed", str(seed), "--threads", str(threads)]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if out.returncode != 0:
        print(f"perfbench: exit {out.returncode}: {' '.join(cmd)}\n{out.stderr}",
              file=sys.stderr)
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed operations, and each instance's digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def check(self, seed, rec, key="digest"):
        """Counts `rec`; returns it if it is a correct result, else None."""
        self.attempted += 1
        good = rec is not None and rec.get("ok", True)
        if good and rec.get("pinned") is not None:
            good = rec[key] == rec["pinned"]
        if good:
            seen = self.digests.setdefault((key, seed), rec[key])
            good = seen == rec[key]
        if not good:
            self.failed += 1
            print(f"perfbench: instance seed {seed}: wrong or missing result", file=sys.stderr)
            return None
        return rec


def measured(binary, workload, seeds, threads, seconds):
    tally = Tally()
    samples = {s: [] for s in seeds}
    start = time.monotonic()
    i = 0
    # One full pass over the instances, then keep cycling until the
    # measuring time is used up.
    while i < len(seeds) or time.monotonic() - start < seconds:
        seed = seeds[i % len(seeds)]
        rec = tally.check(seed, call(binary, "run", workload, seed, threads))
        if rec is not None:
            samples[seed].append(rec)
        i += 1
    # Determinism contract: the same bytes at one thread.
    tally.check(seeds[0], call(binary, "run", workload, seeds[0], 1))
    done = [recs for recs in samples.values() if recs]
    if not done:
        fail("no instance produced a result")

    def median_of(key):
        return statistics.median(statistics.median(r[key] for r in recs) for recs in done)

    metrics = {
        "wall_s": (median_of("wall_s"), "s"),
        "setup_s": (median_of("setup_s"), "s"),
        "peak_rss_mb": (median_of("peak_rss_mb"), "MiB"),
    }
    params = done[0][0]["params"]
    return tally, metrics, {"samples": sum(map(len, done)), "params": params}


def traced(binary, workload, seeds, threads):
    tally = Tally()
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    busy_1t = {layer: 0.0 for layer in THREADED}
    counters = {name: 0 for name, _ in COUNTERS}
    full_mask_calls = 0
    wall = total = unattributed = render = 0.0
    instances = 0
    params = None
    for seed in seeds:
        run = tally.check(seed, call(binary, "run", workload, seed, threads))
        t = tally.check(seed, call(binary, "trace", workload, seed, threads), "outputs")
        t1 = tally.check(seed, call(binary, "trace", workload, seed, 1), "outputs")
        if run is None or t is None or t1 is None:
            continue
        if t["counters"] != t1["counters"]:
            tally.failed += 1
            print(f"perfbench: instance seed {seed}: work counters differ at 1 thread",
                  file=sys.stderr)
            continue
        instances += 1
        params = run["params"]
        wall += run["wall_s"]
        render += run["render_s"]
        total += t["total_s"]
        unattributed += t["unattributed_s"]
        for layer, b in t["layers"].items():
            busy[layer] += b["busy_s"]
            calls[layer] += b["calls"]
        for layer in THREADED:
            busy_1t[layer] += t1["layers"].get(layer, {}).get("busy_s", 0.0)
        for name, v in t["counters"].items():
            if name == "hot_metrics.bias.full_mask_calls":
                full_mask_calls += v
            else:
                counters[name] += v
    if instances == 0:
        fail("no instance produced a result")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (busy[layer], "s")
        count_name = "builds" if layer == "hot_graph.csr" else "calls"
        metrics[f"{layer}.{count_name}"] = (calls[layer], "count")
        if layer in busy_1t:
            metrics[f"{layer}.busy_1t_s"] = (busy_1t[layer], "s")
    for name, unit in COUNTERS:
        metrics[name] = (counters[name], unit)
    bias_calls = calls["hot_metrics.bias"]
    metrics["hot_metrics.bias.full_mask_share"] = (
        full_mask_calls / bias_calls if bias_calls else 0.0, "share")
    metrics["hot_exp.render.busy_s"] = (render, "s")
    metrics["hot_exp.render.calls"] = (instances, "count")
    metrics["trace.overhead_s"] = (total - wall, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    return tally, metrics, {"samples": instances, "params": params,
                            "untraced_wall_s": wall, "traced_total_s": total}


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    threads = len(os.sched_getaffinity(0))
    seeds = [(args.seed + STRIDE * i) % 2**64 for i in range(INSTANCES[args.workload])]
    if args.trace:
        tally, metrics, info = traced(binary, args.workload, seeds, threads)
    else:
        tally, metrics, info = measured(binary, args.workload, seeds, threads, args.seconds)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": seeds,
        "trace": args.trace,
        "threads": threads,
        "nproc": os.cpu_count(),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "-V"]),
        **info,
    }
    print("meta " + json.dumps(meta))
    failed_share = tally.failed / tally.attempted
    print(f"{'failed_share':<44} {failed_share:>16.6g} share "
          f"({tally.failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
