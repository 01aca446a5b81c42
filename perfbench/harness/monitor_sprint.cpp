// monitor_sprint: the continuous monitor over the Sprint 5-tuple preset,
// shaped like scenarios/monitor_steady.scn (rate 0.1, top-10, alpha = 1,
// kBlock, 30 s windows over three 120 s epochs), on 2 ingest shards. The
// trace is materialised in set-up and replayed through a
// trace::FixedTraceSource, one monitor::MonitorLoop per pass. One result
// = one window snapshot, timed between consecutive snapshot callbacks.
// Work unit = offered packets.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/monitor/monitor_loop.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/fault_injection.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/rng.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

// monitor_steady.scn, with the flow rate raised from 120 to 400 flows/s
// so a window carries ~10^5 packets (tens of ms of work) and one pass
// over the three epochs takes about a second.
constexpr double kEpochS = 120.0;
constexpr std::uint64_t kEpochs = 3;
constexpr double kFlowRate = 400.0;
constexpr double kWindowS = 30.0;
constexpr double kRate = 0.1;
constexpr std::size_t kTopT = 10;
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 4096;  // MonitorConfig's default pull size

struct State {
  std::shared_ptr<const fr::trace::TraceSource> source;
  std::uint64_t sampler_seed = 0;
};

State make_state(std::uint64_t workload_seed) {
  std::vector<std::shared_ptr<const fr::trace::TraceSource>> epochs;
  const std::uint64_t trace_seed = fr::util::mix_stream(workload_seed, 0x7EACE);
  for (std::uint64_t k = 0; k < kEpochs; ++k) {
    fr::trace::FlowTraceConfig config =
        fr::trace::FlowTraceConfig::sprint_5tuple(1.5, trace_seed + k);
    config.duration_s = kEpochS;
    config.flow_rate_per_s = kFlowRate;
    epochs.push_back(std::make_shared<fr::trace::SyntheticTraceSource>(config));
  }
  State s;
  s.source = std::make_shared<fr::trace::FixedTraceSource>(
      fr::trace::ConcatTraceSource(std::move(epochs)).flows(), "monitor_sprint");
  s.sampler_seed = fr::util::mix_stream(workload_seed, 0x5A3B1E);
  return s;
}

fr::monitor::MonitorConfig monitor_config(const State& s, std::size_t shards) {
  fr::monitor::MonitorConfig config;
  config.window_s = kWindowS;
  config.top_t = kTopT;
  config.sampling_rate = kRate;
  config.seed = s.sampler_seed;
  config.num_shards = shards;
  config.batch_packets = kBatch;
  return config;
}

std::uint64_t top_digest(std::uint64_t window, const std::vector<fr::monitor::TopFlow>& top) {
  Digest d;
  d.add(window);
  for (const auto& flow : top) {
    d.add(flow.key.hi);
    d.add(flow.key.lo);
    d.add(flow.estimate);
  }
  return d.value();
}

/// One pass of the real MonitorLoop; `on_snapshot` sees every snapshot
/// until it returns false, after which the loop is stopped.
template <typename OnSnapshot>
void monitor_pass(const State& s, std::size_t shards, OnSnapshot&& on_snapshot) {
  std::atomic<bool> stop{false};
  fr::monitor::MonitorConfig config = monitor_config(s, shards);
  config.stop_flag = &stop;
  fr::monitor::MonitorLoop loop(s.source, config);
  (void)loop.run([&](const fr::monitor::MonitorSnapshot& snap) {
    if (stop.load()) return;  // the trailing snapshot of a stopped pass
    if (!on_snapshot(snap)) stop.store(true);
  });
}

/// Per-window top-t digests of one whole pass.
std::map<std::uint64_t, std::uint64_t> pass_digests(const State& s, std::size_t shards) {
  std::map<std::uint64_t, std::uint64_t> digests;
  monitor_pass(s, shards, [&](const fr::monitor::MonitorSnapshot& snap) {
    digests[snap.window] = top_digest(snap.window, snap.top);
    return true;
  });
  return digests;
}

/// Every result's digest must equal the single-shard digest of its window.
std::size_t digest_mismatches(const std::vector<std::uint64_t>& windows,
                              const std::vector<std::uint64_t>& digests,
                              const std::map<std::uint64_t, std::uint64_t>& reference,
                              std::vector<bool>& bad) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto it = reference.find(windows[i]);
    if (it == reference.end() || it->second != digests[i]) {
      bad[i] = true;
      ++mismatches;
    }
  }
  return mismatches;
}

fr::report::RunMetadata sink_metadata(std::uint64_t seed) {
  fr::report::RunMetadata meta;
  meta.experiment = "perfbench monitor_sprint";
  meta.seed = seed;
  return meta;
}

/// The stages MonitorLoop composes (packet stream, base sampler, sharded
/// ingest with epoch rotation, snapshot row + sink), driven through their
/// public calls with a span around each, plus a copy of MonitorLoop's own
/// per-window fold (EWMA tracker, eviction, top-t ranking, rank churn).
/// Valid for the configuration above: no faults and no shedding, so no
/// record screening drops anything and the effective rate is the base
/// rate.
class TracedMonitor {
 public:
  TracedMonitor(const State& s, Tracer& tracer, fr::report::ResultSink& sink)
      : state_(s), tracer_(tracer), sink_(sink) {}

  /// Windows (index, digest) emitted so far, in order.
  std::vector<std::uint64_t> windows, digests;
  std::vector<double> results_ms;
  /// Sampled packets of each window of the first pass, kept for the
  /// flow-table replay.
  std::vector<std::vector<fr::packet::PacketRecord>> first_pass_windows;
  /// Per-window top-t (key, sampled count) of the first pass.
  std::vector<std::vector<std::pair<fr::packet::FlowKey, std::uint64_t>>> first_pass_tops;
  double offered = 0, selected = 0, queue_full = 0;

  /// Runs passes until `deadline_ns`; the pass in flight is finished but
  /// its results after the deadline are not counted.
  void run(std::int64_t deadline_ns) {
    mark_ = now_ns();
    open_result();
    for (std::size_t pass = 0; !done_; ++pass) one_pass(pass == 0, deadline_ns);
  }

 private:
  using Counts = std::unordered_map<fr::packet::FlowKey, std::uint64_t,
                                    fr::packet::FlowKeyHash>;

  void open_result() {
    root_ = tracer_.reserve("result", -1, rid_);
  }

  void one_pass(bool first, std::int64_t deadline_ns) {
    fr::trace::FlowTrace trace;
    {
      ScopedSpan span(tracer_, "trace.flows", root_, rid_);
      trace = state_.source->flows();
      std::erase_if(trace.flows, [](const fr::packet::FlowRecord& flow) {
        return fr::trace::classify_record_fault(flow) != fr::trace::RecordFault::kNone;
      });
    }
    const std::int64_t window_ns = fr::trace::bin_length_ns(kWindowS);
    std::mutex mutex;
    std::map<std::size_t, Counts> pending;
    fr::ingest::ShardedPipelineConfig config;
    config.num_shards = kShards;
    config.bin_ns = window_ns;
    config.on_shard_bin = [&](std::size_t, std::size_t, std::size_t bin,
                              const fr::flowtable::FlowTable& table) {
      std::lock_guard<std::mutex> lock(mutex);
      Counts& acc = pending[bin];
      table.for_each_all(
          [&acc](const fr::flowtable::FlowCounter& flow) { acc[flow.key] += flow.packets; });
    };
    fr::ingest::ShardedPipeline pipeline(config);
    fr::trace::PacketStream stream(trace);
    fr::sampler::BernoulliSampler sampler(kRate, state_.sampler_seed);
    std::uint64_t full_before = 0;

    std::size_t window = 0;
    std::uint64_t snapshot_index = 0;
    // MonitorLoop's EWMA tracker and snapshot ranking, per pass.
    const fr::monitor::MonitorConfig mc = monitor_config(state_, kShards);
    struct Tracked {
      double estimate = 0.0;
      std::uint64_t last_window = 0;
    };
    std::unordered_map<fr::packet::FlowKey, Tracked, fr::packet::FlowKeyHash> tracked;
    std::vector<fr::monitor::TopFlow> prev_top;
    const auto complete = [&](std::size_t w) {
      Counts counts;
      fr::monitor::MonitorSnapshot snap;
      {
        ScopedSpan span(tracer_, "monitor.replica_fold", root_, rid_);
        {
          std::lock_guard<std::mutex> lock(mutex);
          const auto it = pending.find(w);
          if (it != pending.end()) {
            counts = std::move(it->second);
            pending.erase(it);
          }
        }
        const double alpha = mc.ewma_alpha;
        for (const auto& [key, count] : counts) {
          const double estimate = static_cast<double>(count) / mc.sampling_rate;
          const auto [it, fresh] = tracked.try_emplace(key, Tracked{estimate, w});
          if (!fresh) {
            it->second.estimate = alpha * estimate + (1.0 - alpha) * it->second.estimate;
            it->second.last_window = w;
          }
        }
        for (auto it = tracked.begin(); it != tracked.end();) {
          if (it->second.last_window != w) it->second.estimate *= 1.0 - alpha;
          if (it->second.estimate < mc.evict_below ||
              w - it->second.last_window >= mc.max_idle_windows) {
            it = tracked.erase(it);
          } else {
            ++it;
          }
        }
        for (const auto& [key, t] : tracked) snap.top.push_back({key, t.estimate});
        const auto order = [](const fr::monitor::TopFlow& a, const fr::monitor::TopFlow& b) {
          if (a.estimate != b.estimate) return a.estimate > b.estimate;
          return a.key < b.key;
        };
        const std::size_t keep = std::min(mc.top_t, snap.top.size());
        std::partial_sort(snap.top.begin(), snap.top.begin() + keep, snap.top.end(), order);
        snap.top.resize(keep);
        for (std::size_t rank = 0; rank < snap.top.size(); ++rank) {
          const auto prev = std::find_if(prev_top.begin(), prev_top.end(), [&](const auto& f) {
            return f.key == snap.top[rank].key;
          });
          if (prev == prev_top.end()) {
            ++snap.churn_entered;
          } else if (static_cast<std::size_t>(prev - prev_top.begin()) != rank) {
            ++snap.rank_moves;
          }
        }
        prev_top = snap.top;
      }
      const std::uint64_t full = pipeline.overload_stats().queue_full_events;
      queue_full += static_cast<double>(full - full_before);
      full_before = full;
      {
        ScopedSpan span(tracer_, "report.write", root_, rid_);
        snap.index = snapshot_index++;
        snap.window = w;
        snap.time_s = static_cast<double>(w + 1) * mc.window_s;
        snap.tracked_flows = tracked.size();
        snap.window_flows = counts.size();
        sink_.emit(seq_++, fr::monitor::snapshot_row(snap));
      }
      if (first) {
        std::vector<std::pair<fr::packet::FlowKey, std::uint64_t>> top_counts;
        for (const auto& flow : snap.top) top_counts.emplace_back(flow.key, counts[flow.key]);
        first_pass_tops.push_back(std::move(top_counts));
      }
      const std::int64_t now = now_ns();
      if (!done_) {
        tracer_.close(root_, mark_, now);
        results_ms.push_back(ns_to_ms(now - mark_));
        windows.push_back(w);
        digests.push_back(top_digest(w, snap.top));
        if (now >= deadline_ns) done_ = true;
        ++rid_;
        open_result();
      }
      mark_ = now;
    };
    const auto rotate_to = [&](std::size_t next) {
      {
        ScopedSpan span(tracer_, "ingest.rotate", root_, rid_);
        pipeline.rotate_epoch(next);
      }
      for (std::size_t w = window; w < next; ++w) complete(w);
      window = next;
    };

    std::vector<fr::packet::PacketRecord> batch, picked;
    batch.reserve(kBatch);
    picked.reserve(kBatch);
    while (!done_) {
      std::size_t pulled = 0;
      {
        ScopedSpan span(tracer_, "trace.next_batch", root_, rid_);
        pulled = stream.next_batch(batch, kBatch);
      }
      if (pulled == 0) break;
      offered += static_cast<double>(pulled);
      std::size_t begin = 0;
      while (begin < pulled) {
        const std::int64_t boundary = static_cast<std::int64_t>(window + 1) * window_ns;
        std::size_t end = begin;
        while (end < pulled && batch[end].timestamp_ns < boundary) ++end;
        if (end > begin) {
          const std::span<const fr::packet::PacketRecord> segment(batch.data() + begin,
                                                                  end - begin);
          {
            ScopedSpan span(tracer_, "sampler.select", root_, rid_);
            sampler.select_into(segment, picked);
          }
          selected += static_cast<double>(picked.size());
          {
            ScopedSpan span(tracer_, "ingest.add_batch", root_, rid_);
            pipeline.add_batch(0, picked);
          }
          if (first) {
            first_pass_windows.resize(window + 1);
            first_pass_windows[window].insert(first_pass_windows[window].end(),
                                              picked.begin(), picked.end());
          }
          begin = end;
        }
        if (begin < pulled) {
          rotate_to(static_cast<std::size_t>(batch[begin].timestamp_ns / window_ns));
        }
      }
    }
    {
      ScopedSpan span(tracer_, "ingest.rotate", root_, rid_);
      pipeline.finish();
    }
    std::vector<std::size_t> bins;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& entry : pending) bins.push_back(entry.first);
    }
    for (const std::size_t bin : bins) {
      for (std::size_t w = window; w <= bin; ++w) complete(w);
      window = bin + 1;
    }
  }

  const State& state_;
  Tracer& tracer_;
  fr::report::ResultSink& sink_;
  std::size_t seq_ = 0;
  std::int64_t rid_ = 0;
  std::int64_t root_ = -1;
  std::int64_t mark_ = 0;
  bool done_ = false;
};

}  // namespace

void run_monitor_sprint(const RunArgs& args, RunOutput& out, Tracer* tracer) {
  out.work_unit = "packets offered";
  std::vector<double> generate_ms;
  const State state = repeated_setup(out, [&] {
    const std::int64_t start = now_ns();
    State s = make_state(args.seed);
    generate_ms.push_back(ns_to_ms(now_ns() - start));
    // Warm-up: grows the pool to the shard workers and runs one
    // discarded window.
    monitor_pass(s, kShards, [](const fr::monitor::MonitorSnapshot&) { return false; });
    return s;
  });
  out.counters["trace.generate_ms"] = median(generate_ms);

  const double phase_s = tracer ? args.seconds / 2 : args.seconds;
  std::ostringstream rows;
  fr::report::JsonlResultSink sink(rows);
  sink.open(fr::monitor::snapshot_columns(), sink_metadata(args.seed));
  std::size_t seq = 0;
  std::vector<std::uint64_t> windows, digests;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(phase_s * 1e9);
  std::int64_t mark = now_ns();
  bool timed_out = false;
  std::uint64_t threw = 0;
  while (!timed_out) {
    std::uint64_t offered_before = 0;
    try {
      monitor_pass(state, kShards, [&](const fr::monitor::MonitorSnapshot& snap) {
        sink.emit(seq++, fr::monitor::snapshot_row(snap));
        const std::int64_t now = now_ns();
        out.results_ms.push_back(ns_to_ms(now - mark));
        mark = now;
        out.work_units += static_cast<double>(snap.counters.packets_offered - offered_before);
        offered_before = snap.counters.packets_offered;
        windows.push_back(snap.window);
        digests.push_back(top_digest(snap.window, snap.top));
        timed_out = now >= deadline;
        return !timed_out;
      });
    } catch (const std::exception&) {
      // The pass's next window never arrived: count it as one failed result.
      const std::int64_t now = now_ns();
      out.results_ms.push_back(ns_to_ms(now - mark));
      mark = now;
      windows.push_back(~0ULL);
      digests.push_back(0);
      ++threw;
      timed_out = now >= deadline;
    }
  }
  sink.close();

  // Output check, outside the timed phase: the bit-identity contract —
  // every window's top-t equals a single-shard pass's.
  const auto reference = pass_digests(state, 1);
  std::vector<bool> bad(windows.size(), false);
  const std::size_t mismatches = digest_mismatches(windows, digests, reference, bad);
  out.attempted = windows.size();
  for (bool b : bad) out.failed += b ? 1 : 0;
  out.checks.push_back({"per-window top-t digest identical at 1 and 2 shards",
                        mismatches == 0,
                        std::to_string(mismatches - threw) + " of " +
                            std::to_string(windows.size()) + " windows differ, " +
                            std::to_string(threw) + " passes threw"});
  if (!tracer) return;

  std::ostringstream traced_rows;
  fr::report::JsonlResultSink traced_sink(traced_rows);
  traced_sink.open(fr::monitor::snapshot_columns(), sink_metadata(args.seed));
  TracedMonitor replica(state, *tracer, traced_sink);
  replica.run(now_ns() + static_cast<std::int64_t>(phase_s * 1e9));
  traced_sink.close();
  out.traced_results_ms = replica.results_ms;
  for (std::size_t i = 0; i < replica.windows.size(); ++i) {
    ++out.replica_compared;
    const auto it = reference.find(replica.windows[i]);
    if (it == reference.end() || it->second != replica.digests[i]) ++out.replica_mismatched;
  }

  // Flow-table layer, replayed per window of the first traced pass; the
  // replayed table's top-t must match the pipeline's.
  double packets = 0, keys = 0;
  for (std::size_t w = 0; w < replica.first_pass_windows.size(); ++w) {
    const auto& sampled = replica.first_pass_windows[w];
    const fr::flowtable::FlowTable table = replay_window(sampled, *tracer);
    packets += static_cast<double>(sampled.size());
    keys += static_cast<double>(table.size());
    const auto top = fr::flowtable::top_k(table, kTopT);
    ++out.replica_compared;
    bool same = w < replica.first_pass_tops.size() &&
                top.size() == replica.first_pass_tops[w].size();
    for (std::size_t i = 0; same && i < top.size(); ++i) {
      same = top[i].key == replica.first_pass_tops[w][i].first &&
             top[i].packets == replica.first_pass_tops[w][i].second;
    }
    if (!same) ++out.replica_mismatched;
  }
  out.counters["trace.packets"] = replica.offered;
  out.counters["sampler.selected"] = replica.selected;
  out.counters["ingest.queue_full_events"] = replica.queue_full;
  out.counters["flowtable.packets"] = packets;
  out.counters["flowtable.keys"] = keys;
}

int self_test_monitor_sprint() {
  int failures = 0;
  State state = make_state(4);
  const auto two = pass_digests(state, kShards);
  const auto one = pass_digests(state, 1);
  std::vector<std::uint64_t> windows, digests;
  for (const auto& [w, d] : two) {
    windows.push_back(w);
    digests.push_back(d);
  }
  std::vector<bool> bad(windows.size(), false);
  if (windows.empty() || digest_mismatches(windows, digests, one, bad) != 0) ++failures;
  digests.back() ^= 1;
  std::fill(bad.begin(), bad.end(), false);
  if (digest_mismatches(windows, digests, one, bad) != 1) ++failures;
  return failures;
}

}  // namespace perfbench
