"""Summariser of a traced run: per-layer self time, counts and ratios,
the tracing overhead, the blocking-path sum, and the check that each
traced replica reproduced the untraced program's outputs.

    python3 perfbench/summarize.py result.json spans.tsv

The harness writes result.json (raw samples and counters) and spans.tsv
(one span per line: id, parent, result, thread, name, start_ns, end_ns).
"""

import json
import sys
from collections import defaultdict

import stats

# Per workload: the spans timed per result (each reported as
# "<span>_ms", the median over results of the span's summed self time),
# and the public stages whose sum MonitorLoop's own work is measured
# against.
RESULT_SPANS = {
    "monitor_sprint": ["trace.next_batch", "sampler.select", "ingest.add_batch",
                       "ingest.rotate", "monitor.replica_fold", "report.write"],
    "mc_abilene": ["trace.bin_counts", "metrics.context_build", "util.thin",
                   "metrics.evaluate"],
    "exact_plan": ["core.context_build", "core.evaluate"],
    "fleet_churn": ["trace.next_batch", "fleet.route", "sampler.select",
                    "ingest.add_batch", "ingest.rotate", "agg.summarize",
                    "agg.serialize", "agg.channel", "agg.offer",
                    "agg.close_window", "report.write"],
}
MONITOR_PUBLIC_STAGES = ["trace.flows", "trace.next_batch", "sampler.select",
                         "ingest.add_batch", "ingest.rotate", "report.write"]


def load_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            sid, parent, result, thread, name, start, end = line.rstrip("\n").split("\t")
            spans[int(sid)] = dict(parent=int(parent), result=int(result),
                                   thread=int(thread), name=name,
                                   start=int(start), end=int(end))
    return spans


def per_result(spans):
    """Closed result roots, each result's summed self time per span name,
    its blocking-path time (spans on the driver thread directly under the
    root) and its spans."""
    roots = {s["result"]: sid for sid, s in spans.items()
             if s["name"] == "result" and s["end"] > 0}
    members = defaultdict(list)
    for sid, s in spans.items():
        if s["result"] in roots:
            members[s["result"]].append(sid)
    self_ns = stats.self_times({sid: (s["parent"], s["start"], s["end"])
                                for sid, s in spans.items() if s["result"] in roots})
    by_name, blocking = {}, {}
    for rid, root in roots.items():
        sums = defaultdict(int)
        block = 0
        for sid in members[rid]:
            s = spans[sid]
            if sid == root:
                continue
            sums[s["name"]] += self_ns[sid]
            if s["parent"] == root and s["thread"] == spans[root]["thread"]:
                block += s["end"] - s["start"]
        by_name[rid] = sums
        blocking[rid] = block
    return roots, by_name, blocking, members


def summarize(result, spans):
    """Per-layer metrics of one workload's traced run: name -> (value,
    unit), names prefixed by the workload."""
    wl = result["workload"]
    counters = result["counters"]
    roots, by_name, blocking, members = per_result(spans)
    if not roots:
        raise ValueError(f"{wl}: the traced run closed no result")
    results = sorted(roots)
    untraced_p50 = stats.median(result["results_ms"])
    traced_p50 = stats.median(result["traced_results_ms"])

    def layer_ms(name):
        return stats.median([by_name[r].get(name, 0) for r in results]) / 1e6

    def per_result_sum_ms(names):
        return stats.median([sum(by_name[r].get(n, 0) for n in names)
                             for r in results]) / 1e6

    def standalone_ms(name):
        return stats.median([s["end"] - s["start"] for s in spans.values()
                             if s["name"] == name and s["parent"] == -1]) / 1e6

    def durations(name):
        return [s["end"] - s["start"] for s in spans.values() if s["name"] == name]

    m = {}
    for name in RESULT_SPANS[wl]:
        m[name + "_ms"] = (layer_ms(name), "ms")
    if "trace.generate_ms" in counters:
        m["trace.generate_ms"] = (counters["trace.generate_ms"], "ms")
    windows = len(results)
    if wl in ("monitor_sprint", "fleet_churn"):
        m["trace.packets"] = (counters["trace.packets"] / windows, "count")
        m["flowtable.add_batch_ms"] = (standalone_ms("flowtable.add_batch"), "ms")
        m["flowtable.new_key_frac"] = (
            counters["flowtable.keys"] / counters["flowtable.packets"], "frac")
    if wl == "monitor_sprint":
        m["sampler.selected_frac"] = (
            counters["sampler.selected"] / counters["trace.packets"], "frac")
        m["ingest.queue_full_events"] = (
            counters["ingest.queue_full_events"] / windows, "count")
        m["monitor.fold_ms"] = (
            untraced_p50 - per_result_sum_ms(MONITOR_PUBLIC_STAGES), "ms")
    elif wl == "mc_abilene":
        m["util.thin_draws"] = (counters["util.thin_draws"] / windows, "count")
        m["metrics.evaluations"] = (counters["metrics.evaluations"] / windows, "count")
        sweep = sum(durations("exec.parallel_for"))
        m["exec.pool_busy_frac"] = (
            sum(durations("exec.task")) / (sweep * counters["exec.workers"]), "frac")
        task_max = []
        for r in results:
            tasks = [spans[sid]["end"] - spans[sid]["start"] for sid in members[r]
                     if spans[sid]["name"] == "exec.task"]
            task_max.append(max(tasks) if tasks else 0)
        m["exec.task_ms.max"] = (stats.median(task_max) / 1e6, "ms")
    elif wl == "exact_plan":
        # Every probe builds one context, so this is also the number of
        # contexts built per plan.
        m["core.probes_per_plan"] = (counters["core.probes"] / counters["core.plans"],
                                     "count")
        build_ms = sum(durations("core.context_build")) / 1e6
        m["exec.pool_busy_frac"] = (
            counters["core.build_cpu_ms"] / (build_ms * counters["exec.workers"]), "frac")
    elif wl == "fleet_churn":
        m["agg.summary_bytes"] = (counters["agg.summary_bytes"] / counters["agg.summaries"],
                                  "B")
        m["agg.rejected_frac"] = (counters["agg.rejected"] / counters["agg.offers"], "frac")

    blocking_ms = stats.median([blocking[r] for r in results]) / 1e6
    m["tracing.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    m["blocking.sum_ms"] = (blocking_ms, "ms")
    return {f"{wl}.{k}": v for k, v in m.items()}


def report_lines(result, metrics):
    """Human-readable summary and the two traced-run verdicts: whether the
    replica outputs equal the untraced outputs, and whether the blocking
    path's layers add up to the untraced result time."""
    wl = result["workload"]
    untraced = stats.median(result["results_ms"])
    overhead = metrics[f"{wl}.tracing.overhead_ms"][0]
    blocking = metrics[f"{wl}.blocking.sum_ms"][0]
    lines = [f"[{wl}] traced run: {len(result['traced_results_ms'])} traced results, "
             f"untraced result_ms.p50 {untraced:.3f} ms"]
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name:<44} {value:14.6g} {unit}")
    equal = result["replica_mismatched"] == 0 and result["replica_compared"] > 0
    lines.append(f"  replica outputs equal untraced outputs: "
                 f"{'PASS' if equal else 'FAIL'} "
                 f"({result['replica_compared']} compared, "
                 f"{result['replica_mismatched']} differ)")
    adds_up = stats.adds_up(blocking, untraced, overhead)
    lines.append(f"  blocking-path layers sum to result_ms.p50 within overhead: "
                 f"{'PASS' if adds_up else 'FAIL'} "
                 f"(sum {blocking:.3f} ms = {blocking / untraced:.3f} x {untraced:.3f} ms, "
                 f"overhead {overhead:.3f} ms)")
    return lines, equal, adds_up


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        result = json.load(f)
    metrics = summarize(result, load_spans(argv[2]))
    lines, equal, adds_up = report_lines(result, metrics)
    print("\n".join(lines))
    return 0 if equal and adds_up else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
