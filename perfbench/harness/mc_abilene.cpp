// mc_abilene: trace-driven Monte-Carlo on fig16's Abilene-like trace
// (count path). One result = one replicate of the whole (rate x bin) grid:
// sim::run_binned_simulation with runs = 1 and a fresh seed, on 2 sweep
// threads. Work unit = binomial draws (flows in rankable bins x rates).
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/sim/sweep_engine.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/rng.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

// scenarios/figures/fig16_sim_ranking_abilene.spec at its first bin size
// (60 s), with the trace cut from 900 s to two bins so that a replicate
// takes ~0.2 s. The tail has 10 results beyond it, so only a host stall
// of about two seconds reaches it.
constexpr double kDurationS = 120.0;
constexpr double kFlowRateScale = 0.125;
constexpr double kBinS = 60.0;
constexpr std::size_t kTopT = 10;
constexpr std::size_t kThreads = 2;
const std::vector<double> kRates{0.001, 0.01, 0.1, 0.8};
/// Replicates whose digest is recomputed on one sweep thread.
constexpr std::size_t kThreadChecks = 3;

fr::sim::SimConfig sim_config(std::uint64_t replicate_seed, std::size_t threads) {
  fr::sim::SimConfig config;
  config.bin_seconds = kBinS;
  config.top_t = kTopT;
  config.sampling_rates = kRates;
  config.runs = 1;
  config.seed = replicate_seed;
  config.num_threads = threads;
  return config;
}

std::uint64_t replicate_seed(std::uint64_t workload_seed, std::uint64_t index) {
  return fr::util::mix_streams(workload_seed, 0x3C0A, index);
}

fr::trace::FlowTrace make_trace(std::uint64_t workload_seed) {
  fr::trace::FlowTraceConfig config =
      fr::trace::FlowTraceConfig::abilene(fr::util::mix_stream(workload_seed, 0x7EACE));
  config.duration_s = kDurationS;
  config.flow_rate_per_s *= kFlowRateScale;
  return fr::trace::generate_flow_trace(config);
}

/// What a replicate's checks need: a digest of every per-cell statistic,
/// the work it did and the bin-averaged ranking metric per rate.
struct Replicate {
  std::uint64_t digest = 0;
  double draws = 0.0;
  std::vector<double> ranking_by_rate;
};

Replicate summarize(const fr::sim::SimResult& result) {
  Replicate rep;
  Digest digest;
  for (const fr::sim::RateSeries& series : result.series) {
    double sum = 0.0;
    std::size_t bins = 0;
    for (const fr::sim::BinStats& bin : series.bins) {
      if (bin.ranking.count() == 0) continue;
      digest.add(bin.ranking.mean());
      digest.add(bin.detection.mean());
      digest.add(bin.recall.mean());
      rep.draws += static_cast<double>(bin.flows_in_bin);
      sum += bin.ranking.mean();
      ++bins;
    }
    rep.ranking_by_rate.push_back(bins ? sum / static_cast<double>(bins)
                                       : std::numeric_limits<double>::quiet_NaN());
  }
  rep.digest = digest.value();
  return rep;
}

/// The ranking metric must fall as the rate rises: never up from one rate
/// to the next, and down overall.
bool ranking_falls(const std::vector<double>& by_rate) {
  if (by_rate.size() < 2) return false;
  for (std::size_t i = 0; i + 1 < by_rate.size(); ++i) {
    if (!(by_rate[i + 1] <= by_rate[i])) return false;
  }
  return by_rate.back() < by_rate.front();
}

/// run_binned_simulation driven through its layers' public calls, with a
/// span around each: binning on the driver, then the (rate, bin) grid on
/// the sweep engine, each cell's context build, thinning and evaluation
/// on the worker that runs it.
Replicate traced_replicate(const fr::trace::FlowTrace& trace, std::uint64_t seed,
                           Tracer& tracer, std::int64_t root, std::int64_t rid,
                           std::atomic<std::uint64_t>& draws,
                           std::atomic<std::uint64_t>& evaluations) {
  const fr::sim::SimConfig config = sim_config(seed, kThreads);
  fr::trace::BinnedCounts counts;
  {
    ScopedSpan span(tracer, "trace.bin_counts", root, rid);
    counts = fr::trace::bin_flow_counts(trace, config.bin_seconds, config.definition,
                                        config.seed);
  }
  fr::sim::SimResult result;
  result.config = config;
  result.series.resize(config.sampling_rates.size());
  struct Cell {
    std::size_t rate_idx = 0;
    std::size_t bin = 0;
  };
  std::vector<Cell> cells;
  for (std::size_t r = 0; r < config.sampling_rates.size(); ++r) {
    result.series[r].sampling_rate = config.sampling_rates[r];
    result.series[r].bins.resize(counts.bins.size());
    for (std::size_t b = 0; b < counts.bins.size(); ++b) {
      result.series[r].bins[b].flows_in_bin = counts.bins[b].size();
      if (counts.bins[b].size() >= config.top_t) cells.push_back(Cell{r, b});
    }
  }

  const std::int64_t sweep = tracer.reserve("exec.parallel_for", root, rid);
  const std::int64_t sweep_start = now_ns();
  fr::sim::SweepEngine engine(kThreads);
  engine.parallel_for(cells.size(), [&](std::size_t index) {
    const std::int64_t task = tracer.reserve("exec.task", sweep, rid);
    const std::int64_t task_start = now_ns();
    thread_local std::vector<std::uint64_t> true_sizes, sampled_sizes;
    const Cell cell = cells[index];
    const auto& bin = counts.bins[cell.bin];
    fr::sim::BinStats& stats = result.series[cell.rate_idx].bins[cell.bin];
    true_sizes.resize(bin.size());
    sampled_sizes.resize(bin.size());
    for (std::size_t i = 0; i < bin.size(); ++i) true_sizes[i] = bin[i].packets;

    std::int64_t start = now_ns();
    fr::metrics::RankMetricsContext context(true_sizes, config.top_t);
    fr::util::BinomialThinner thin(config.sampling_rates[cell.rate_idx]);
    tracer.record("metrics.context_build", task, rid, start, now_ns());

    auto engine_rng = fr::util::make_engine(
        config.seed, fr::util::mix_streams(cell.rate_idx, 0, cell.bin));
    start = now_ns();
    for (std::size_t i = 0; i < bin.size(); ++i) {
      sampled_sizes[i] = thin(true_sizes[i], engine_rng);
    }
    tracer.record("util.thin", task, rid, start, now_ns());
    draws += bin.size();

    start = now_ns();
    const auto m = context.evaluate(sampled_sizes, config.tie_policy);
    tracer.record("metrics.evaluate", task, rid, start, now_ns());
    ++evaluations;
    stats.ranking.add(m.ranking_swapped);
    stats.detection.add(m.detection_swapped);
    stats.recall.add(m.top_set_recall);
    tracer.close(task, task_start, now_ns());
  });
  tracer.close(sweep, sweep_start, now_ns());
  return summarize(result);
}

struct State {
  fr::trace::FlowTrace trace;
};

}  // namespace

void run_mc_abilene(const RunArgs& args, RunOutput& out, Tracer* tracer) {
  out.work_unit = "binomial draws";
  std::vector<double> generate_ms;
  const State state = repeated_setup(out, [&] {
    State s;
    const std::int64_t start = now_ns();
    s.trace = make_trace(args.seed);
    generate_ms.push_back(ns_to_ms(now_ns() - start));
    // Warm-up: grows the pool to the sweep's workers and runs one
    // discarded replicate on a seed the timed phase never uses.
    (void)fr::sim::run_binned_simulation(
        s.trace, sim_config(replicate_seed(args.seed, ~0ULL), kThreads));
    return s;
  });
  out.counters["trace.generate_ms"] = median(generate_ms);

  const double phase_s = tracer ? args.seconds / 2 : args.seconds;
  std::vector<Replicate> reps;
  std::vector<bool> threw;
  out.results_ms = closed_loop(phase_s, [&](std::size_t i) {
    try {
      reps.push_back(summarize(fr::sim::run_binned_simulation(
          state.trace, sim_config(replicate_seed(args.seed, i), kThreads))));
      threw.push_back(false);
    } catch (const std::exception&) {
      reps.emplace_back();
      threw.push_back(true);
    }
  });

  // Output checks, outside the timed phase. One replicate is a single
  // Monte-Carlo draw, whose metric at adjacent low rates may cross, so
  // the fall with the rate is checked on ranking_mean, the mean over the
  // run's replicates; when it fails, every replicate counts as failed.
  std::vector<bool> bad(threw);
  std::vector<double> ranking_mean(kRates.size(), 0.0);
  std::size_t good = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out.work_units += reps[i].draws;
    if (threw[i]) continue;
    for (std::size_t r = 0; r < kRates.size(); ++r) ranking_mean[r] += reps[i].ranking_by_rate[r];
    ++good;
  }
  for (double& m : ranking_mean) m /= static_cast<double>(std::max<std::size_t>(good, 1));
  const bool falls = ranking_falls(ranking_mean);
  if (!falls) bad.assign(reps.size(), true);
  std::size_t thread_mismatch = 0;
  const std::size_t thread_checks = std::min(kThreadChecks, reps.size());
  for (std::size_t i = 0; i < thread_checks; ++i) {
    const Replicate one = summarize(fr::sim::run_binned_simulation(
        state.trace, sim_config(replicate_seed(args.seed, i), 1)));
    if (one.digest != reps[i].digest) {
      bad[i] = true;
      ++thread_mismatch;
    }
  }
  out.attempted = reps.size();
  for (bool b : bad) out.failed += b ? 1 : 0;
  std::string means;
  for (double m : ranking_mean) means += (means.empty() ? "" : ", ") + std::to_string(m);
  out.checks.push_back({"ranking_mean falls as the rate rises", falls,
                        "over " + std::to_string(good) + " replicates: " + means});
  out.checks.push_back({"replicate digest identical at 1 and 2 sweep threads",
                        thread_mismatch == 0,
                        std::to_string(thread_mismatch) + " of " +
                            std::to_string(thread_checks) + " replicates differ"});
  if (!tracer) return;

  std::atomic<std::uint64_t> draws{0}, evaluations{0};
  std::vector<Replicate> traced;
  std::int64_t rid = 0;
  std::int64_t root = -1;
  std::int64_t root_start = 0;
  out.traced_results_ms = closed_loop(phase_s, [&](std::size_t i) {
    rid = static_cast<std::int64_t>(i);
    root = tracer->reserve("result", -1, rid);
    root_start = now_ns();
    traced.push_back(traced_replicate(state.trace, replicate_seed(args.seed, i),
                                      *tracer, root, rid, draws, evaluations));
    tracer->close(root, root_start, now_ns());
  });
  for (std::size_t i = 0; i < traced.size() && i < reps.size(); ++i) {
    ++out.replica_compared;
    if (traced[i].digest != reps[i].digest) ++out.replica_mismatched;
  }
  out.counters["util.thin_draws"] = static_cast<double>(draws.load());
  out.counters["metrics.evaluations"] = static_cast<double>(evaluations.load());
  out.counters["exec.workers"] = static_cast<double>(kThreads);
}

int self_test_mc_abilene() {
  int failures = 0;
  fr::trace::FlowTraceConfig config = fr::trace::FlowTraceConfig::abilene(5);
  config.duration_s = 120.0;
  config.flow_rate_per_s *= 0.02;
  const fr::trace::FlowTrace trace = fr::trace::generate_flow_trace(config);
  const Replicate base =
      summarize(fr::sim::run_binned_simulation(trace, sim_config(11, kThreads)));
  const Replicate one = summarize(fr::sim::run_binned_simulation(trace, sim_config(11, 1)));
  if (!ranking_falls(base.ranking_by_rate) || one.digest != base.digest) ++failures;
  std::vector<double> rising = base.ranking_by_rate;
  std::swap(rising.front(), rising.back());
  if (ranking_falls(rising)) ++failures;
  const Replicate other =
      summarize(fr::sim::run_binned_simulation(trace, sim_config(12, kThreads)));
  if (other.digest == base.digest) ++failures;
  return failures;
}

}  // namespace perfbench
