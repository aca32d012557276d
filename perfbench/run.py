#!/usr/bin/env python3
"""The treecache repository benchmark: one command, three workloads.

Modes
  untraced (--trace 0, the default)
      Builds the program from source, generates the workload's inputs from
      --seed, sets the workload up several times, then repeats its
      fixed-size stream for --seconds and reports per-rep medians of the
      end-to-end metrics below.
  traced (--trace 1)
      One separate run that times every layer apart: set-up steps, the
      stream untraced and through the benchmark's RequestSource decorators
      (alternating), a standalone per-shard pass, and the `none` floor. It
      reports the per-layer metrics listed at the end of this text and
      writes a Chrome trace-event file that Perfetto opens, under
      .bench_build/traces/.
  compare (--compare PARENT CHANGE)
      Reads two result sets written with --record (parent commit and
      change) and prints, per workload and end-to-end metric, each side's
      median and quartiles, the share of seed-matched pairs the change
      won, and a verdict: gain, no change, regression or unresolved. A
      workload where the change fails its checks, or fails a larger share
      of its ops than the parent, reads "failing" on every metric and the
      exit code is 1.

End-to-end metrics (untraced runs; every one also has a bound in
BENCHMARK.json, the share of the parent's median it may worsen by)
  throughput_ops  ops/s    higher is better  ops completed per second of
                                             run wall; an op is a request
                                             (open loops) or a router event,
                                             packet or rule update (fib)
  cpu_ns_per_op   ns       lower is better   process user+sys CPU per op;
                                             shows wall gains bought with
                                             extra cores
  setup_s         s        lower is better   inputs on disk to the first
                                             request (tree/table build, MRT
                                             ingest and rebuild, ShardPlan,
                                             instances, source); median of
                                             several set-ups per run
  peak_rss_mb     MiB      lower is better   VmHWM of the measuring process
  cost_per_op     cost/op  lower is better   (service + reorg cost) / ops,
                                             the paper's objective; exact
  error_rate      failed/attempted, must be 0: printed here, and carried by
                  the result line's "failed" and "attempted" counts (a
                  failed op is a router forwarding error, or any op of a
                  rep whose checked outputs mismatch).

Workloads (all TC, alpha 16, capacity 512)
  zipf-1x1          Zipf(1.0) + 10% negatives over the 37,449-node 8-ary
                    tree, unsharded through sim::run_source. Generation
                    dominates and no engine runs: a Zipf-sampler or sink
                    change shows here, an engine change must not.
  deep-uniform-8x3  uniform + 10% negatives over the 13-level 32,761-node
                    universe, 8 shards on 3 workers (ShardedEngine::run).
                    The uniform source splits by replication, so there is
                    no demux or worker queue: each worker regenerates the
                    whole stream and keeps its shards' requests.
                    Generation and TC's 13-level walks carry the time; no
                    Zipf draw is on the path.
  fib-mrt-8x3       the closed-loop router over the table ingested from a
                    seeded 1M-route + 50k-update MRT feed, 8 shards on 3
                    workers (run_split). The only workload with feedback,
                    the engine's demux and worker queues, rule-update
                    writes, RIB ingest in set-up, and per-node state larger
                    than L2.
Together every planned optimization has a workload that shows it and one
that must not move.

Checks (every seed): every rep returns identical outputs; the engine's
per-shard results equal a standalone per-shard pass; the router makes no
forwarding errors; a traced run's outputs equal the untraced ones. At the
default seed the outputs must also equal the golden values in
perfbench/reference.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "perfbench"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ["zipf-1x1", "deep-uniform-8x3", "fib-mrt-8x3"]
DEFAULT_SEED = 1
# Input sets kept per workload; a 1M-route MRT feed is ~40 MB.
KEEP_INPUTS = 3
# Bumped whenever the generator changes, so stale input sets are not reused.
INPUTS_VERSION = 1
# A run must end within 180 s; the program gets what is left of it.
RUN_DEADLINE_S = 170.0
GOLDEN_KEYS = ["total_cost", "rounds", "packets", "updates", "hits"]


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark package from source."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no treecache sources under {ROOT / 'src'}; run from a "
            "checkout of the repository", 2)
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w", encoding="utf-8") as log:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH), "-B", str(CMAKE_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(f"build failed (log: {log_path})", 3)


def inputs_for(workload, seed):
    """The input directory for (workload, seed), generated on first use.

    Generation runs in its own process before any timing, so neither the
    timed window nor set-up includes it; the measuring process reads only
    the files and parameters written here.
    """
    base = BUILD / "inputs"
    base.mkdir(parents=True, exist_ok=True)
    target = base / f"{workload}-v{INPUTS_VERSION}-seed{seed}"
    if not (target / "params.txt").is_file():
        staging = base / f".{workload}-seed{seed}.{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        result = subprocess.run(
            [str(BINARY), "gen", "--workload", workload, "--seed", str(seed),
             "--out", str(staging)], check=False)
        if result.returncode != 0:
            shutil.rmtree(staging, ignore_errors=True)
            die(f"input generation failed for {workload}")
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
    os.utime(target)
    sets = sorted(base.glob(f"{workload}-v*-seed*"),
                  key=lambda p: p.stat().st_mtime)
    for old in sets[:-KEEP_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def expected_metrics(trace):
    spec = load_json(ROOT / "BENCHMARK.json")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, started):
    """Runs the measuring program once; returns its result document."""
    inputs = inputs_for(workload, seed)
    cmd = [str(BINARY), "run", "--inputs", str(inputs),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    budget = RUN_DEADLINE_S - (time.monotonic() - started)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=max(budget, 1.0), check=False)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within the run deadline")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        die(f"{workload} failed (exit {result.returncode})")
    doc = json.loads(lines[-1])
    names = list(doc["metrics"])
    if names != expected_metrics(trace):
        die(f"{workload} reported metrics {names}, not the BENCHMARK.json set")
    if seed == DEFAULT_SEED:
        golden = load_json(REFERENCE)["golden"][workload]
        ok = all(doc["outputs"][k] == golden[k] for k in GOLDEN_KEYS)
        doc["checks"]["golden_outputs"] = ok
        if not ok:
            doc["correct"] = False
            doc["failed"] = doc["attempted"]
    return doc


def print_report(workload, seed, doc):
    mode = "traced" if doc["mode"] == "traced" else "end-to-end"
    print(f"{workload}  seed {seed}  {mode}  ({doc['reps']} reps)")
    for name, m in doc["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    rate = doc["failed"] / doc["attempted"]
    print(f"  {'error_rate':32s} {rate:>16.6g} failed/attempted "
          f"({doc['failed']}/{doc['attempted']})")
    # Beside each per-rep median: the worst-side percentile that still has
    # ten reps beyond it.
    for name, key, worse_high in (("throughput_ops", "throughput_samples",
                                   False),
                                  ("cpu_ns_per_op", "cpu_ns_samples", True)):
        samples = sorted(doc.get(key, []), reverse=worse_high)
        if len(samples) > 10:
            share = 100.0 * 10 / len(samples)
            pct = 100.0 - share if worse_high else share
            print(f"  {name} p{pct:.0f} over {len(samples)} reps: "
                  f"{samples[10]:.6g}")
    checks = ", ".join(f"{k} {'ok' if v else 'FAILED'}"
                       for k, v in doc["checks"].items())
    print(f"  checks: {checks}")
    if "trace_file" in doc:
        print(f"  trace: {doc['trace_file']} ({doc['spans']} spans, "
              f"{doc['dropped_spans']} dropped)")


def per_layer_help():
    """The per-layer metrics with unit, direction and the end-to-end
    metric/workload each should move, from BENCHMARK.json and
    reference.json."""
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        layer_map = load_json(REFERENCE)["layer_map"]
    except (OSError, KeyError, ValueError):
        return ""
    lines = ["Per-layer metrics (traced runs): unit, better, moves"]
    for m in spec["per_layer"]:
        moves = ", ".join(layer_map.get(m["name"], {}).get("moves", [])) or "-"
        lines.append(f"  {m['name']:28s} {m['unit']:8s} {m['better']:6s} "
                     f"{moves}")
    return "\n".join(lines)


def result_line(doc):
    return {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}


# --- compare mode -----------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(parent, change, better, bound):
    """The choosing-metrics rule for one metric on one workload.

    `parent` and `change` are seed-matched lists of values.
    """
    def wins(c, p):
        return c > p if better == "higher" else c < p

    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if wins(c, p)) / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse = (p_med - c_med) if better == "higher" else (c_med - p_med)
    if worse > bound * abs(p_med):
        return won, "regression"
    if won >= 0.9 and wins(c_med, p_med) and abs(c_med - p_med) > q3 - q1:
        return won, "gain"
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    if spread > bound and not all(wins(c, p) for c in change for p in parent):
        return won, "unresolved"
    return won, "no change"


def read_records(path):
    records = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if not r["trace"]:
                    records.setdefault(r["workload"], {})[r["seed"]] = r
    return records


def failures(side, workload, seeds):
    """(failed, attempted, all records correct) of one side's runs."""
    runs = [side[workload][s] for s in seeds]
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
            all(r["correct"] for r in runs))


def compare(parent_path, change_path):
    """Prints the verdicts; returns False if any workload's change fails."""
    spec = load_json(ROOT / "BENCHMARK.json")
    parent, change = read_records(parent_path), read_records(change_path)
    print(f"{'workload':18s} {'metric':15s} {'parent median [q1, q3]':38s} "
          f"{'change median [q1, q3]':38s} {'won':>5s}  verdict")
    ok = True
    for workload in WORKLOADS:
        seeds = sorted(set(parent.get(workload, {})) &
                       set(change.get(workload, {})))
        if not seeds:
            continue
        p_failed, p_attempted, _ = failures(parent, workload, seeds)
        c_failed, c_attempted, c_correct = failures(change, workload, seeds)
        # A change that fails checks, or fails a larger share of its ops
        # than the parent, gains nothing whatever its medians say.
        failing = (not c_correct or
                   c_failed * p_attempted > p_failed * c_attempted)
        ok = ok and not failing
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            won, word = verdict(p, c, m["better"], m["bound"])
            if failing:
                word = "failing"
            print(f"{workload:18s} {name:15s} {summary(p):38s} "
                  f"{summary(c):38s} {won:5.0%}  {word}")
        print(f"{workload:18s} {len(seeds)} seed-matched pairs; failed/"
              f"attempted parent {p_failed}/{p_attempted}, change "
              f"{c_failed}/{c_attempted}"
              f"{'' if c_correct else ', change checks FAILED'}")
    return ok


# --- main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        epilog=per_layer_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %(default)s, the golden "
                             "seed)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="timed window per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--record", metavar="FILE",
                        help="append each run's result to FILE (JSON lines) "
                             "for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --record files and exit")
    args = parser.parse_args()

    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    started = time.monotonic()
    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    docs = {}
    for workload in names:
        doc = run_one(workload, args.seed, args.seconds, bool(args.trace),
                      started if len(names) == 1 else time.monotonic())
        print_report(workload, args.seed, doc)
        docs[workload] = doc
        if args.record:
            with open(args.record, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": args.seed,
                                    "trace": args.trace,
                                    **result_line(doc)}) + "\n")
    if len(names) == 1:
        line = result_line(docs[names[0]])
    else:
        line = {
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {f"{w}/{k}": v for w, d in docs.items()
                        for k, v in d["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(line))


if __name__ == "__main__":
    main()
