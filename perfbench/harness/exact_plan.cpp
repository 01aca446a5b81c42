// exact_plan: the paper's "given an accuracy, find the minimum sampling
// rate" operation on the exact discrete model. One result = one
// core::plan_sampling_rate call (2 table-build threads), rotating over a
// fixed list of (t, target) pairs. Work unit = plans.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "flowrank/core/discrete_context.hpp"
#include "flowrank/core/sampling_planner.hpp"
#include "flowrank/dist/discretized.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/util/rng.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

// scenarios/figures/est_exact_discrete_sweep.spec: Sprint 5-tuple sizes
// (Pareto, mean 9.6 packets) at beta 2.5, support cut at 600 packets.
constexpr double kMeanPackets = 9.6;
constexpr double kBeta = 2.5;
constexpr std::int64_t kMaxSize = 600;
constexpr double kTailTol = 1e-4;
constexpr std::size_t kThreads = 2;
// The planner's default search interval for the discrete model.
constexpr double kPMin = 1e-4;
constexpr double kPMax = 0.999;

struct Pair {
  std::int64_t t = 0;
  double target = 0.0;
};
// The spec's t sweep at targets every plan meets well below p_max and
// misses at p_min, so each plan bisects fully (19 probes) and plans cost
// alike. t = 25 is left out: it misses targets up to 2 even at p_max,
// which makes a one-probe plan.
const std::vector<Pair> kPairs{{2, 0.5}, {2, 1.0}, {2, 2.0},  {5, 0.5},
                               {5, 2.0}, {5, 4.0}, {10, 2.0}, {10, 4.0}};

struct State {
  std::shared_ptr<const fr::dist::Discretized> pmf;
  std::int64_t n = 0;
  std::vector<Pair> order;  ///< kPairs in a seed-dependent order
};

fr::core::DiscreteModelConfig model_config(const State& s, const Pair& pair,
                                           std::size_t threads) {
  fr::core::DiscreteModelConfig config;
  config.n = s.n;
  config.t = pair.t;
  config.size_pmf = s.pmf;
  config.max_size = kMaxSize;
  config.tail_tolerance = kTailTol;
  config.num_threads = threads;
  return config;
}

fr::core::PlannerResult plan(const State& s, const Pair& pair, std::size_t threads) {
  return fr::core::plan_sampling_rate(model_config(s, pair, threads), pair.target,
                                      kPMin, kPMax);
}

State make_state(std::uint64_t workload_seed) {
  State s;
  s.pmf = std::make_shared<fr::dist::Discretized>(
      std::make_shared<fr::dist::Pareto>(fr::dist::Pareto::from_mean(kMeanPackets, kBeta)));
  auto rng = fr::util::make_engine(workload_seed, 0xE8AC7);
  // The spec's population of 2000 flows, varied by up to 10% per seed.
  s.n = 1800 + static_cast<std::int64_t>(rng() % 401);
  s.order = kPairs;
  for (std::size_t i = s.order.size() - 1; i > 0; --i) {
    std::swap(s.order[i], s.order[rng() % (i + 1)]);
  }
  return s;
}

bool same_plan(const fr::core::PlannerResult& a, const fr::core::PlannerResult& b) {
  return a.sampling_rate == b.sampling_rate && a.metric == b.metric &&
         a.feasible == b.feasible;
}

/// A feasible plan must meet its target.
bool meets_target(const fr::core::PlannerResult& r, double target) {
  return !r.feasible || r.metric <= target;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// plan_sampling_rate's bisection driven through the model layer's
/// public calls, with a span around every probe's context build and
/// evaluation. Must reproduce plan() bit for bit.
fr::core::PlannerResult traced_plan(const State& s, const Pair& pair, Tracer& tracer,
                                    std::int64_t root, std::int64_t rid,
                                    double& probes, double& build_cpu_ms) {
  const auto metric_at = [&](double p) {
    fr::core::DiscreteContextConfig config;
    config.p = p;
    config.size_pmf = s.pmf;
    config.max_size = kMaxSize;
    config.tail_tolerance = kTailTol;
    config.num_threads = kThreads;
    const double cpu_start = process_cpu_ms();
    std::int64_t start = now_ns();
    const fr::core::DiscreteModelContext context(config);
    tracer.record("core.context_build", root, rid, start, now_ns());
    build_cpu_ms += process_cpu_ms() - cpu_start;
    start = now_ns();
    const double metric = context.evaluate(s.n, pair.t).metric;
    tracer.record("core.evaluate", root, rid, start, now_ns());
    probes += 1.0;
    return metric;
  };

  fr::core::PlannerResult result;
  const double at_max = metric_at(kPMax);
  if (at_max > pair.target) {
    result.sampling_rate = kPMax;
    result.metric = at_max;
    return result;
  }
  const double at_min = metric_at(kPMin);
  if (at_min <= pair.target) {
    result.sampling_rate = kPMin;
    result.metric = at_min;
    result.feasible = true;
    return result;
  }
  double lo = std::log(kPMin);
  double hi = std::log(kPMax);
  double hi_metric = at_max;
  for (int iter = 0; iter < 60 && hi - lo > 1e-4; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double m = metric_at(std::exp(mid));
    if (m <= pair.target) {
      hi = mid;
      hi_metric = m;
    } else {
      lo = mid;
    }
  }
  result.sampling_rate = std::exp(hi);
  result.metric = hi_metric;
  result.feasible = true;
  return result;
}

}  // namespace

void run_exact_plan(const RunArgs& args, RunOutput& out, Tracer* tracer) {
  out.work_unit = "plans";
  const State state = repeated_setup(out, [&] {
    State s = make_state(args.seed);
    // Warm-up: grows the pool to the build threads and runs one
    // discarded plan.
    (void)plan(s, s.order.front(), kThreads);
    return s;
  });

  const double phase_s = tracer ? args.seconds / 2 : args.seconds;
  std::vector<fr::core::PlannerResult> plans;
  std::vector<bool> threw;
  out.results_ms = closed_loop(phase_s, [&](std::size_t i) {
    try {
      plans.push_back(plan(state, state.order[i % state.order.size()], kThreads));
      threw.push_back(false);
    } catch (const std::exception&) {
      plans.emplace_back();
      threw.push_back(true);
    }
  });

  // Output checks, outside the timed phase: one single-threaded plan per
  // pair is the reference every timed plan of that pair must equal.
  std::vector<fr::core::PlannerResult> reference;
  // A traced run compares its replica against every pair's reference.
  const std::size_t used =
      tracer ? state.order.size() : std::min(plans.size(), state.order.size());
  for (std::size_t k = 0; k < used; ++k) reference.push_back(plan(state, state.order[k], 1));
  std::size_t thread_mismatch = 0, missed_target = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Pair& pair = state.order[i % state.order.size()];
    bool bad = threw[i];
    if (!bad && !same_plan(plans[i], reference[i % state.order.size()])) {
      bad = true;
      ++thread_mismatch;
    }
    if (!bad && !meets_target(plans[i], pair.target)) {
      bad = true;
      ++missed_target;
    }
    out.failed += bad ? 1 : 0;
  }
  out.attempted = plans.size();
  out.work_units = static_cast<double>(plans.size());
  out.checks.push_back({"chosen p identical at 1 and 2 build threads",
                        thread_mismatch == 0,
                        std::to_string(thread_mismatch) + " of " +
                            std::to_string(plans.size()) + " plans differ"});
  out.checks.push_back({"feasible plan's metric <= target", missed_target == 0,
                        std::to_string(missed_target) + " plans miss their target"});
  if (!tracer) return;

  double probes = 0.0, build_cpu_ms = 0.0;
  std::vector<fr::core::PlannerResult> traced;
  out.traced_results_ms = closed_loop(phase_s, [&](std::size_t i) {
    const auto rid = static_cast<std::int64_t>(i);
    const std::int64_t root = tracer->reserve("result", -1, rid);
    const std::int64_t start = now_ns();
    traced.push_back(traced_plan(state, state.order[i % state.order.size()], *tracer,
                                 root, rid, probes, build_cpu_ms));
    tracer->close(root, start, now_ns());
  });
  for (std::size_t i = 0; i < traced.size(); ++i) {
    ++out.replica_compared;
    if (!same_plan(traced[i], reference[i % state.order.size()])) ++out.replica_mismatched;
  }
  out.counters["core.probes"] = probes;
  out.counters["core.plans"] = static_cast<double>(traced.size());
  out.counters["core.build_cpu_ms"] = build_cpu_ms;
  out.counters["exec.workers"] = static_cast<double>(kThreads);
}

int self_test_exact_plan() {
  int failures = 0;
  const State state = make_state(3);
  const Pair pair{10, 1.0};
  const fr::core::PlannerResult two = plan(state, pair, kThreads);
  const fr::core::PlannerResult one = plan(state, pair, 1);
  if (!same_plan(two, one) || !meets_target(two, pair.target)) ++failures;
  fr::core::PlannerResult moved = two;
  moved.sampling_rate = std::nextafter(moved.sampling_rate, 1.0);
  if (same_plan(moved, one)) ++failures;
  fr::core::PlannerResult over = two;
  over.metric = pair.target * 1.01;
  if (meets_target(over, pair.target)) ++failures;
  return failures;
}

}  // namespace perfbench
