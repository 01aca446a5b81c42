// fleet_churn: the churn_stress.scn bounded population with turnover,
// split by flow hash over 3 vantage agents through agg::run_fleet, with
// aggregate_faulty.scn's summary-channel faults (drops, bit flips, late
// and duplicate deliveries, one agent's three-window outage). One result =
// one merged window, timed between window callbacks. Work unit = offered
// packets. The injected channel faults are input, not failures.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "flowrank/agg/aggregator.hpp"
#include "flowrank/agg/fleet_run.hpp"
#include "flowrank/agg/flow_summary.hpp"
#include "flowrank/agg/summary_channel.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/rng.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

// scenarios/churn_stress.scn's population (12 packets and 0.8 s per
// flow) scaled up 8x: 6400 live 5-tuples, 320 replaced per second, 4800
// flows/s, over a 120 s trace cut into 10 s windows. The scaling keeps
// the share of new keys per window and makes a window about 0.25 s of
// work. The tail has 10 results beyond it, so only a host stall of more
// than two seconds reaches it.
constexpr double kDurationS = 120.0;
constexpr double kWindowS = 10.0;
constexpr double kScale = 8.0;
constexpr double kRate = 0.2;
constexpr std::size_t kShards = 2;

struct State {
  fr::trace::FlowTrace trace;
  fr::agg::FleetConfig config;
};

State make_state(std::uint64_t workload_seed) {
  fr::trace::FlowChurnConfig churn;
  churn.duration_s = kDurationS;
  churn.population = static_cast<std::size_t>(800 * kScale);
  churn.churn_per_s = 40.0 * kScale;
  churn.flow_rate_per_s = 600.0 * kScale;
  churn.mean_packets = 12.0;
  churn.mean_duration_s = 0.8;
  churn.tcp_fraction = 0.9;
  churn.seed = fr::util::mix_stream(workload_seed, 0x7EACE);
  State s;
  s.trace = fr::trace::FlowChurnTraceSource(churn).flows();

  // aggregate_faulty.scn's fleet and channel, with per-agent shards at 2.
  fr::agg::FleetConfig& c = s.config;
  c.agents = 3;
  c.split = fr::agg::FleetSplit::kFlow;
  c.window_s = kWindowS;
  c.sampling_rate = kRate;
  c.seed = fr::util::mix_stream(workload_seed, 0x5A3B1E);
  c.num_shards = kShards;
  c.top_t = 10;
  c.deadline_ms = 250;
  c.quarantine_after = 2;
  c.readmit_after = 1;
  c.summary_kind = fr::agg::SummaryKind::kFlowTable;
  c.union_capacity = 0;
  c.chan.drop_fraction = 0.08;
  c.chan.corrupt_fraction = 0.08;
  c.chan.delay_fraction = 0.05;
  c.chan.delay_windows = 1;
  c.chan.duplicate_fraction = 0.05;
  c.chan.outage_agent = 2;
  c.chan.outage_from = 4;
  c.chan.outage_windows = 3;
  c.chan.seed = fr::util::mix_stream(workload_seed, 0xC4A9);
  return s;
}

std::uint64_t window_digest(const fr::agg::MergedWindow& w) {
  Digest d;
  d.add(w.epoch);
  for (const auto& flow : w.top) {
    d.add(flow.key.hi);
    d.add(flow.key.lo);
    d.add(flow.estimated_packets);
    d.add(flow.error_bound);
  }
  d.add(w.merged_flows);
  d.add(w.agents_merged);
  d.add(w.missed);
  d.add(w.corrupt);
  d.add(w.stale);
  d.add(w.late);
  d.add(w.duplicates);
  d.add(w.quarantined);
  d.add(w.packets_sampled);
  return d.value();
}

/// The aggregator must account for exactly what the channel injected:
/// one outcome per delivery, one fault per summary. Returns the names of
/// the equalities that fail.
std::vector<std::string> counter_mismatches(const fr::agg::FleetReport& r,
                                            std::size_t agents) {
  const fr::agg::AggregatorCounters& seen = r.counters;
  const fr::agg::ChannelCounters& sent = r.injected;
  std::vector<std::string> bad;
  const auto expect = [&bad](bool ok, const char* what) {
    if (!ok) bad.emplace_back(what);
  };
  expect(sent.submitted == r.windows * agents, "submitted == windows x agents");
  expect(seen.windows_closed == r.windows, "windows_closed == windows");
  expect(seen.summaries_offered == sent.delivered, "offered == delivered");
  expect(seen.corrupt_summaries == sent.corrupted, "corrupt == corrupted");
  expect(seen.late_summaries == sent.delayed, "late == delayed");
  // A duplicated copy is a duplicate, or stale when its first copy was
  // the probe that readmitted a quarantined agent.
  expect(seen.duplicate_summaries + seen.stale_summaries == sent.duplicated,
         "duplicate + stale == duplicated");
  expect(seen.summaries_merged + seen.quarantined_probes ==
             sent.delivered - sent.corrupted - sent.delayed - sent.duplicated,
         "merged + probes == clean deliveries");
  expect(seen.unknown_agent_summaries == 0, "unknown agents == 0");
  return bad;
}

/// Packets the trace offers in each window (the work unit; a merged
/// window's own packets_offered counts only the agents that reported).
std::vector<double> window_packets(const fr::trace::FlowTrace& trace) {
  const std::int64_t window_ns = fr::trace::bin_length_ns(kWindowS);
  std::vector<double> counts;
  fr::trace::PacketStream stream(trace);
  std::vector<fr::packet::PacketRecord> batch;
  while (stream.next_batch(batch, 4096) > 0) {
    for (const auto& pkt : batch) {
      const auto w = static_cast<std::size_t>(pkt.timestamp_ns / window_ns);
      if (w >= counts.size()) counts.resize(w + 1, 0.0);
      counts[w] += 1.0;
    }
  }
  return counts;
}

fr::report::RunMetadata sink_metadata(std::uint64_t seed) {
  fr::report::RunMetadata meta;
  meta.experiment = "perfbench fleet_churn";
  meta.seed = seed;
  return meta;
}

/// run_fleet driven through its stages' public calls (packet stream,
/// flow-hash routing, per-agent sampler and sharded ingest, window
/// collection, FlowSummary summarize/serialize, the fault channel,
/// Aggregator offer/close, window row + sink), with a span around each.
/// Valid for the configuration above (flow-table summaries, flow split).
class TracedFleet {
 public:
  TracedFleet(const State& s, Tracer& tracer, fr::report::ResultSink& sink)
      : state_(s), tracer_(tracer), sink_(sink) {}

  std::vector<std::uint64_t> epochs, digests;
  std::vector<double> results_ms;
  /// Each agent-window's sampled packets, first pass only (for the
  /// flow-table replay).
  std::vector<std::vector<fr::packet::PacketRecord>> first_pass_agent_windows;
  double offered = 0, summary_bytes = 0, summaries = 0;
  double offers = 0, rejected = 0;

  void run(std::int64_t deadline_ns) {
    mark_ = now_ns();
    root_ = tracer_.reserve("result", -1, rid_);
    for (std::size_t pass = 0; !done_; ++pass) one_pass(pass == 0, deadline_ns);
  }

 private:
  struct Agent {
    Agent(double rate, std::uint64_t seed) : sampler(rate, seed) {}
    fr::sampler::BernoulliSampler sampler;
    std::unique_ptr<fr::ingest::ShardedPipeline> pipeline;
    std::mutex mutex;
    std::map<std::size_t, std::vector<fr::flowtable::FlowCounter>> window_flows;
    std::uint64_t offered_window = 0, sampled_window = 0;
    std::vector<fr::packet::PacketRecord> routed, selected, window_sampled;
  };

  void one_pass(bool first, std::int64_t deadline_ns) {
    const fr::agg::FleetConfig& config = state_.config;
    const std::int64_t window_ns = fr::trace::bin_length_ns(config.window_s);
    std::vector<std::unique_ptr<Agent>> agents;
    for (std::size_t a = 0; a < config.agents; ++a) {
      agents.push_back(std::make_unique<Agent>(config.sampling_rate,
                                               fr::util::mix_stream(config.seed, a)));
      Agent& agent = *agents.back();
      fr::ingest::ShardedPipelineConfig pipe;
      pipe.num_shards = config.num_shards;
      pipe.bin_ns = window_ns;
      pipe.table_options.definition = config.definition;
      pipe.on_shard_bin = [&agent](std::size_t, std::size_t, std::size_t bin,
                                   const fr::flowtable::FlowTable& table) {
        std::lock_guard<std::mutex> lock(agent.mutex);
        auto& flows = agent.window_flows[bin];
        table.for_each_all([&flows](const fr::flowtable::FlowCounter& c) { flows.push_back(c); });
      };
      agent.pipeline = std::make_unique<fr::ingest::ShardedPipeline>(pipe);
    }
    fr::agg::FaultInjectingSummaryChannel channel(config.chan, config.agents);
    fr::agg::AggregatorConfig agg_config;
    agg_config.agents_expected = config.agents;
    agg_config.top_t = config.top_t;
    agg_config.window_s = config.window_s;
    agg_config.quarantine_after = config.quarantine_after;
    agg_config.readmit_after = config.readmit_after;
    agg_config.union_capacity = config.union_capacity;
    fr::agg::Aggregator aggregator(agg_config);

    const auto offer = [&](fr::agg::SummaryDelivery& delivery) {
      fr::agg::OfferOutcome outcome;
      {
        ScopedSpan span(tracer_, "agg.offer", root_, rid_);
        outcome = aggregator.offer(delivery.agent_id, delivery.bytes);
      }
      offers += 1;
      if (outcome == fr::agg::OfferOutcome::kCorrupt ||
          outcome == fr::agg::OfferOutcome::kLate ||
          outcome == fr::agg::OfferOutcome::kStale) {
        rejected += 1;
      }
    };

    std::uint64_t current = 0, max_seen = 0;
    bool any_packet = false;
    const auto close_one = [&](std::uint64_t w) {
      for (std::size_t a = 0; a < config.agents; ++a) {
        Agent& agent = *agents[a];
        {
          ScopedSpan span(tracer_, "ingest.rotate", root_, rid_);
          agent.pipeline->rotate_epoch(static_cast<std::size_t>(w) + 1);
        }
        if (first) {
          first_pass_agent_windows.push_back(std::move(agent.window_sampled));
          agent.window_sampled.clear();
        }
        std::vector<fr::flowtable::FlowCounter> flows;
        fr::agg::FlowSummary summary;
        {
          ScopedSpan span(tracer_, "agg.summarize", root_, rid_);
          {
            std::lock_guard<std::mutex> lock(agent.mutex);
            const auto it = agent.window_flows.find(static_cast<std::size_t>(w));
            if (it != agent.window_flows.end()) {
              flows = std::move(it->second);
              agent.window_flows.erase(it);
            }
          }
          fr::flowtable::FlowTable::Options options;
          options.definition = config.definition;
          options.initial_capacity = std::max<std::size_t>(64, flows.size() * 2);
          fr::flowtable::FlowTable table(options);
          for (const auto& counter : flows) table.insert_counter(counter);
          summary = fr::agg::summarize_table(table, static_cast<std::uint32_t>(a), w,
                                             config.sampling_rate);
          summary.shed_packets = 0;  // kBlock pipelines never shed
          summary.packets_offered = agent.offered_window;
          summary.packets_sampled = agent.sampled_window;
        }
        agent.offered_window = 0;
        agent.sampled_window = 0;
        std::vector<std::uint8_t> bytes;
        {
          ScopedSpan span(tracer_, "agg.serialize", root_, rid_);
          bytes = fr::agg::serialize(summary);
        }
        summary_bytes += static_cast<double>(bytes.size());
        summaries += 1;
        ScopedSpan span(tracer_, "agg.channel", root_, rid_);
        channel.submit(static_cast<std::uint32_t>(a), w, std::move(bytes));
      }
      std::vector<fr::agg::SummaryDelivery> ready;
      {
        ScopedSpan span(tracer_, "agg.channel", root_, rid_);
        ready = channel.drain_ready(w);
      }
      for (auto& delivery : ready) offer(delivery);
      fr::agg::MergedWindow window;
      {
        ScopedSpan span(tracer_, "agg.close_window", root_, rid_);
        window = aggregator.close_window(w);
      }
      {
        ScopedSpan span(tracer_, "report.write", root_, rid_);
        sink_.emit(seq_++, fr::agg::window_row(window));
      }
      const std::int64_t now = now_ns();
      if (!done_) {
        tracer_.close(root_, mark_, now);
        results_ms.push_back(ns_to_ms(now - mark_));
        epochs.push_back(window.epoch);
        digests.push_back(window_digest(window));
        if (now >= deadline_ns) done_ = true;
        ++rid_;
        root_ = tracer_.reserve("result", -1, rid_);
      }
      mark_ = now;
    };
    const auto close_through = [&](std::uint64_t target) {
      while (current < target) close_one(current++);
    };

    const auto process_segment = [&](std::span<const fr::packet::PacketRecord> pkts) {
      {
        ScopedSpan span(tracer_, "fleet.route", root_, rid_);
        for (auto& agent : agents) agent->routed.clear();
        for (const auto& pkt : pkts) {
          const fr::packet::FlowKey key = fr::packet::make_flow_key(pkt.tuple, config.definition);
          const std::uint64_t lane = fr::packet::FlowKeyHash{}(key) % config.agents;
          agents[static_cast<std::size_t>(lane)]->routed.push_back(pkt);
        }
      }
      for (auto& agent_ptr : agents) {
        Agent& agent = *agent_ptr;
        if (agent.routed.empty()) continue;
        agent.offered_window += agent.routed.size();
        {
          ScopedSpan span(tracer_, "sampler.select", root_, rid_);
          agent.sampler.select_into(agent.routed, agent.selected);
        }
        agent.sampled_window += agent.selected.size();
        {
          ScopedSpan span(tracer_, "ingest.add_batch", root_, rid_);
          agent.pipeline->add_batch(0, agent.selected);
        }
        if (first) {
          agent.window_sampled.insert(agent.window_sampled.end(), agent.selected.begin(),
                                      agent.selected.end());
        }
      }
    };

    fr::trace::PacketStream stream(state_.trace);
    std::vector<fr::packet::PacketRecord> batch;
    batch.reserve(config.batch_packets);
    while (!done_) {
      std::size_t pulled = 0;
      {
        ScopedSpan span(tracer_, "trace.next_batch", root_, rid_);
        pulled = stream.next_batch(batch, config.batch_packets);
      }
      if (pulled == 0) break;
      offered += static_cast<double>(pulled);
      std::size_t i = 0;
      while (i < batch.size()) {
        const auto w = static_cast<std::uint64_t>(batch[i].timestamp_ns / window_ns);
        if (w > current) close_through(w);
        std::size_t j = i + 1;
        while (j < batch.size() &&
               static_cast<std::uint64_t>(batch[j].timestamp_ns / window_ns) == w) {
          ++j;
        }
        process_segment(std::span<const fr::packet::PacketRecord>(batch.data() + i, j - i));
        max_seen = std::max(max_seen, w);
        any_packet = true;
        i = j;
      }
    }
    if (done_) {
      for (auto& agent : agents) agent->pipeline->finish();
      return;
    }
    std::uint64_t total = fr::trace::bin_count(state_.trace.config.duration_s, config.window_s);
    if (any_packet) total = std::max(total, max_seen + 1);
    close_through(total);
    std::vector<fr::agg::SummaryDelivery> rest;
    {
      ScopedSpan span(tracer_, "agg.channel", root_, rid_);
      rest = channel.drain_all();
    }
    for (auto& delivery : rest) offer(delivery);
    {
      ScopedSpan span(tracer_, "ingest.rotate", root_, rid_);
      for (auto& agent : agents) agent->pipeline->finish();
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

void run_fleet_churn(const RunArgs& args, RunOutput& out, Tracer* tracer) {
  out.work_unit = "packets offered";
  std::vector<double> generate_ms;
  const State state = repeated_setup(out, [&] {
    const std::int64_t start = now_ns();
    State s = make_state(args.seed);
    generate_ms.push_back(ns_to_ms(now_ns() - start));
    // Warm-up: grows the pool to the shard workers and runs one
    // discarded pass over the first windows of the trace.
    fr::trace::FlowTrace head{s.trace.config, {}};
    head.config.duration_s = 2 * kWindowS;
    std::copy_if(s.trace.flows.begin(), s.trace.flows.end(), std::back_inserter(head.flows),
                 [](const fr::packet::FlowRecord& f) { return f.end_s() < 2 * kWindowS; });
    (void)fr::agg::run_fleet(head, s.config, {});
    return s;
  });
  out.counters["trace.generate_ms"] = median(generate_ms);

  const std::vector<double> offered = window_packets(state.trace);

  const double phase_s = tracer ? args.seconds / 2 : args.seconds;
  std::ostringstream rows;
  fr::report::JsonlResultSink sink(rows);
  sink.open(fr::agg::window_columns(), sink_metadata(args.seed));
  std::size_t seq = 0;
  std::vector<bool> bad;  // one entry per counted result
  std::vector<std::string> mismatched;
  std::uint64_t threw = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(phase_s * 1e9);
  std::int64_t mark = now_ns();
  bool timed_out = false;
  while (!timed_out) {
    // A pass runs to the end of the trace; windows closed after the
    // deadline are not counted.
    const std::size_t first_result = bad.size();
    try {
      const fr::agg::FleetReport report =
          fr::agg::run_fleet(state.trace, state.config, [&](const fr::agg::MergedWindow& w) {
            sink.emit(seq++, fr::agg::window_row(w));
            const std::int64_t now = now_ns();
            if (!timed_out) {
              out.results_ms.push_back(ns_to_ms(now - mark));
              out.work_units += w.epoch < offered.size() ? offered[w.epoch] : 0.0;
              bad.push_back(false);
              timed_out = now >= deadline;
            }
            mark = now;
          });
      const auto wrong = counter_mismatches(report, state.config.agents);
      if (!wrong.empty()) {
        mismatched.insert(mismatched.end(), wrong.begin(), wrong.end());
        std::fill(bad.begin() + static_cast<std::ptrdiff_t>(first_result), bad.end(), true);
      }
    } catch (const std::exception&) {
      const std::int64_t now = now_ns();
      out.results_ms.push_back(ns_to_ms(now - mark));
      mark = now;
      bad.push_back(true);
      ++threw;
      timed_out = now >= deadline;
    }
  }
  sink.close();
  out.attempted = bad.size();
  for (bool b : bad) out.failed += b ? 1 : 0;
  std::string detail = std::to_string(threw) + " passes threw";
  for (const auto& m : mismatched) detail += "; failed: " + m;
  out.checks.push_back({"aggregator counters equal the channel's injected counts",
                        mismatched.empty() && threw == 0, detail});
  if (!tracer) return;

  // The merged windows of one whole untraced pass are the reference the
  // traced replica must reproduce.
  std::map<std::uint64_t, std::uint64_t> reference;
  (void)fr::agg::run_fleet(state.trace, state.config, [&](const fr::agg::MergedWindow& w) {
    reference[w.epoch] = window_digest(w);
  });
  std::ostringstream traced_rows;
  fr::report::JsonlResultSink traced_sink(traced_rows);
  traced_sink.open(fr::agg::window_columns(), sink_metadata(args.seed));
  TracedFleet replica(state, *tracer, traced_sink);
  replica.run(now_ns() + static_cast<std::int64_t>(phase_s * 1e9));
  traced_sink.close();
  out.traced_results_ms = replica.results_ms;
  for (std::size_t i = 0; i < replica.epochs.size(); ++i) {
    ++out.replica_compared;
    const auto it = reference.find(replica.epochs[i]);
    if (it == reference.end() || it->second != replica.digests[i]) ++out.replica_mismatched;
  }

  // Flow-table layer, replayed per agent-window of the first traced pass.
  double packets = 0, keys = 0;
  for (const auto& sampled : replica.first_pass_agent_windows) {
    packets += static_cast<double>(sampled.size());
    keys += static_cast<double>(replay_window(sampled, *tracer).size());
  }
  out.counters["trace.packets"] = replica.offered;
  out.counters["agg.summary_bytes"] = replica.summary_bytes;
  out.counters["agg.summaries"] = replica.summaries;
  out.counters["agg.offers"] = replica.offers;
  out.counters["agg.rejected"] = replica.rejected;
  out.counters["flowtable.packets"] = packets;
  out.counters["flowtable.keys"] = keys;
}

int self_test_fleet_churn() {
  int failures = 0;
  State state = make_state(6);
  const fr::agg::FleetReport report = fr::agg::run_fleet(state.trace, state.config, {});
  if (!counter_mismatches(report, state.config.agents).empty()) ++failures;
  fr::agg::FleetReport perturbed = report;
  ++perturbed.counters.late_summaries;
  if (counter_mismatches(perturbed, state.config.agents).empty()) ++failures;
  perturbed = report;
  ++perturbed.injected.duplicated;
  if (counter_mismatches(perturbed, state.config.agents).empty()) ++failures;
  return failures;
}

}  // namespace perfbench
