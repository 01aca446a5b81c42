// Shared helpers for the remaining claim-check benchmarks
// (summary_claims and the ablations).
//
// The paper figures themselves no longer live here: each is a declarative
// ExperimentSpec under scenarios/figures/ run by flowrank_experiments
// (see src/flowrank/sim/experiment.hpp); the rate-grid builders moved
// into the sweep grammar and the CSV emission into report::ResultSink.
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "flowrank/core/ranking_model.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/util/cli.hpp"
#include "flowrank/util/table.hpp"

namespace bench {

/// The paper's Sprint-derived constants (Sec. 6).
constexpr double kMean5Tuple = 9.6;        // packets (4.8 KB / 500 B)
constexpr double kMeanPrefix24 = 33.2;     // packets (16.6 KB / 500 B)
constexpr std::int64_t kN5Tuple = 700000;  // flows per 5-min interval
constexpr std::int64_t kNPrefix24 = 100000;

inline flowrank::core::RankingModelConfig sprint_config(std::int64_t n,
                                                        std::int64_t t, double beta,
                                                        double mean_packets) {
  flowrank::core::RankingModelConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.size_dist = std::make_shared<flowrank::dist::Pareto>(
      flowrank::dist::Pareto::from_mean(mean_packets, beta));
  return cfg;
}

inline void print_header(const std::string& figure, const std::string& what) {
  std::cout << "# " << figure << " — " << what << "\n";
}

/// Prints one claim's verdict block and returns `holds`, so a driver can
/// fail on any DEVIATION.
inline bool print_verdict(const std::string& claim, bool holds,
                          const std::string& measured) {
  std::cout << "paper claim : " << claim << "\n";
  std::cout << "measured    : " << measured << "\n";
  std::cout << "verdict     : "
            << (holds ? "SHAPE REPRODUCED"
                      : "DEVIATION (see scenarios/figures/README.md, \"Model fidelity\")")
            << "\n\n";
  return holds;
}

}  // namespace bench
