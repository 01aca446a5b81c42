// Inverse problem: given a traffic mix and an accuracy target, what is the
// minimum sampling rate? This operationalizes the paper's "given a desired
// accuracy, we find the required minimum sampling rate" perspective and is
// what the sampling_rate_planner example exposes.
#pragma once

#include "flowrank/core/detection_model.hpp"
#include "flowrank/core/discrete_model.hpp"
#include "flowrank/core/ranking_model.hpp"

namespace flowrank::core {

/// Which accuracy goal the planner inverts.
enum class PlannerGoal {
  kRankTopT,    ///< ranking metric (order within the list matters)
  kDetectTopT,  ///< detection metric (set membership only)
};

/// Planner output.
struct PlannerResult {
  double sampling_rate = 0.0;  ///< minimal p meeting the target
  double metric = 0.0;         ///< achieved metric at that p
  bool feasible = false;       ///< false when even p=pmax misses the target
};

/// Finds the minimal sampling rate p in [p_min, p_max] such that the
/// model metric is <= `target` (the paper's acceptability line is 1).
/// The metric is monotone decreasing in p, so this is a bisection on
/// log p. `config.p` is ignored.
[[nodiscard]] PlannerResult plan_sampling_rate(RankingModelConfig config,
                                               PlannerGoal goal, double target = 1.0,
                                               double p_min = 1e-4,
                                               double p_max = 1.0);

/// Discrete-model goal: same bisection, but every probe evaluates the
/// exact discrete ranking model (Eqs. 1 and 3) instead of the continuous
/// quadrature — what the future adaptive controller retunes against.
/// Each probe changes p, so each rebuilds the pairwise tables; keep
/// `config.max_size` modest when planning in a loop. `config.p` is ignored. Unlike the continuous
/// overload, p_max must stay strictly below 1 (the discrete model's
/// domain is p in (0,1)).
[[nodiscard]] PlannerResult plan_sampling_rate(DiscreteModelConfig config,
                                               double target = 1.0,
                                               double p_min = 1e-4,
                                               double p_max = 0.999);

}  // namespace flowrank::core
