#!/usr/bin/env python3
"""End-to-end benchmark of flowrank. See perfbench/README.md.

One run of one workload (the benchmark contract; the last stdout line is
the JSON result):

    python3 perfbench/run.py --workload monitor_sprint --seed 1 --seconds 30 --trace 0

Every end-to-end metric of every workload, with units:

    python3 perfbench/run.py --all

Steadiness: K runs of one workload on seeds 1..K, each metric's median
and quartiles against the bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness --workload mc_abilene --runs 5

The harness's negative self-tests and the benchmark's own unit tests:

    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the library and the
harness (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import summarize  # noqa: E402

WORKLOADS = ["monitor_sprint", "mc_abilene", "exact_plan", "fleet_churn"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Configures and builds the harness (Release); returns its path.
    Exits non-zero when the build fails or the tree is not Release."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", "3"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit(f"perfbench: build failed ({' '.join(cmd)}); see {log_path}")
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        cache_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if cache_type != "Release":
        sys.exit(f"perfbench: refusing to time a '{cache_type}' build, not Release")
    return os.path.join(out, "flowrank_perfbench")


def run_harness(binary, workload, seed, seconds, traced):
    """Runs the harness once; returns its parsed output (and spans path)."""
    out = build_dir()
    tag = f"{workload}-{seed}-{os.getpid()}"
    result_path = os.path.join(out, f"result-{tag}.json")
    spans_path = os.path.join(out, f"spans-{tag}.tsv")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--out", result_path]
    if traced:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        sys.exit(f"perfbench: harness failed on {workload} (exit {proc.returncode})")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    return result, spans_path


def end_to_end(result):
    """The six end-to-end metrics of one untraced run: name -> (value, unit),
    plus the sample counts and tail percentile for the log."""
    r = result["results_ms"]
    tail_value, tail_pct = stats.tail(r)
    metrics = {
        "setup_s": (stats.median(result["setup_s"]), "s"),
        "work_per_s": (result["work_units"] / (sum(r) / 1e3), "1/s"),
        "result_ms.p50": (stats.median(r), "ms"),
        "result_ms.tail": (tail_value, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - stats.failed_frac(result["attempted"], result["failed"]), "frac"),
    }
    notes = {"results": len(r), "tail_percentile": tail_pct,
             "setup_reps": len(result["setup_s"]), "setup_cold_s": result["setup_s"][0],
             "work_unit": result["work_unit"],
             "failed_frac": stats.failed_frac(result["attempted"], result["failed"])}
    return metrics, notes


def stamp_line(result):
    s = result["stamp"]
    return (f"host: nproc={s['nproc']} cpu='{s['cpu_model']}' loadavg@start={s['loadavg_at_start']}"
            f" steal={100 * s['host_steal_frac']:.1f}%"
            f" | build: git={git_describe()} library={s['library_version']}"
            f" type={s['build_type']}")


def checks_ok(result):
    for check in result["checks"]:
        print(f"  check {'PASS' if check['ok'] else 'FAIL'}: {check['name']} ({check['detail']})")
    return all(c["ok"] for c in result["checks"])


def print_end_to_end(workload, metrics, notes):
    print(f"[{workload}] {notes['results']} results, tail = p{notes['tail_percentile']:.1f}, "
          f"setup = median of {notes['setup_reps']} (first, cold: "
          f"{notes['setup_cold_s']:.6g} s), work unit = {notes['work_unit']}, "
          f"failed_frac = {notes['failed_frac']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:14.6g} {unit}")


def one_run(binary, workload, seed, seconds, traced):
    """The contract run: returns the final JSON object."""
    if not traced:
        result, _ = run_harness(binary, workload, seed, seconds, False)
        print(stamp_line(result))
        metrics, notes = end_to_end(result)
        print_end_to_end(workload, metrics, notes)
        correct = checks_ok(result) and result["failed"] == 0
        return {"correct": correct, "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    # A traced run covers all four workloads (the requested one first), so
    # that every per-layer metric is measured in every traced run. Each
    # gets a quarter of the run time, split between its untraced and
    # traced phase, so a traced run measures as long as an untraced one.
    order = [workload] + [w for w in WORKLOADS if w != workload]
    per_layer, correct, attempted, failed = {}, True, 0, 0
    for w in order:
        result, spans_path = run_harness(binary, w, seed, seconds / 4, True)
        if w == workload:
            print(stamp_line(result))
        metrics = summarize.summarize(result, summarize.load_spans(spans_path))
        os.remove(spans_path)
        lines, equal, adds_up = summarize.report_lines(result, metrics)
        print("\n".join(lines))
        correct = (checks_ok(result) and equal and adds_up and result["failed"] == 0
                   and correct)
        attempted += result["attempted"]
        failed += result["failed"]
        per_layer.update(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}}


def load_bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def steadiness(binary, workload, runs, seconds, first_seed):
    bounds = load_bounds()
    values = {}
    for i in range(runs):
        seed = first_seed + i
        result, _ = run_harness(binary, workload, seed, seconds, False)
        metrics, notes = end_to_end(result)
        print(f"run {i + 1}/{runs} seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, (v, _) in metrics.items())
            + f" (host steal {100 * result['stamp']['host_steal_frac']:.1f}%)", flush=True)
        for k, (v, _) in metrics.items():
            values.setdefault(k, []).append(v)
    print(f"[{workload}] {runs} runs of {seconds} s: median, quartiles and "
          f"(q3 - q1) / median against a third of each bound")
    steady = True
    for k, vs in values.items():
        q1, q2, q3, spread = stats.quartile_spread(vs)
        bound = bounds.get(k)
        ok = bound is None or spread <= bound / 3
        steady &= ok
        print(f"  {k:<16} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  bound {bound}  {'ok' if ok else 'WIDE'}")
    return steady


def self_test(binary):
    ok = subprocess.run([binary, "--self-test"]).returncode == 0
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok &= unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="every workload, end to end")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return 0 if self_test(binary) else 1
    if args.steadiness:
        if not args.workload:
            parser.error("--steadiness needs --workload")
        return 0 if steadiness(binary, args.workload, args.runs, args.seconds, args.seed) else 1
    if args.all:
        correct = True
        for w in WORKLOADS:
            final = one_run(binary, w, args.seed, args.seconds, False)
            correct &= final["correct"]
        return 0 if correct else 1
    if not args.workload:
        parser.error("--workload is required")
    final = one_run(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
