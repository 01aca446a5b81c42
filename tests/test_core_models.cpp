// Tests for the general ranking model (Sec. 5), detection model (Sec. 7),
// exact discrete model, Monte-Carlo validator and planner.
//
// The decisive checks are model-vs-Monte-Carlo: the quadrature models must
// agree with brute-force simulation of the very process the paper
// describes, across sampling rates, population sizes and distributions.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "flowrank/core/detection_model.hpp"
#include "flowrank/core/discrete_model.hpp"
#include "flowrank/core/mc_model.hpp"
#include "flowrank/core/misranking.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/core/sampling_planner.hpp"
#include "flowrank/dist/exponential.hpp"
#include "flowrank/dist/pareto.hpp"

namespace fc = flowrank::core;
namespace fd = flowrank::dist;

namespace {

fc::RankingModelConfig make_config(std::int64_t n, std::int64_t t, double p,
                                   double beta = 1.5, double mean = 9.6) {
  fc::RankingModelConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.p = p;
  cfg.size_dist = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(mean, beta));
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ranking model vs Monte Carlo
// ---------------------------------------------------------------------------

struct McAgreementCase {
  std::int64_t n;
  std::int64_t t;
  double p;
  double beta;
};

class RankingVsMc : public ::testing::TestWithParam<McAgreementCase> {};

TEST_P(RankingVsMc, ModelWithinMcConfidenceBand) {
  const auto param = GetParam();
  auto cfg = make_config(param.n, param.t, param.p, param.beta);
  const auto model = fc::evaluate_ranking_model(cfg);
  const auto mc = fc::run_mc_model(cfg, 60, /*seed=*/1234);
  const double mc_mean = mc.ranking_metric.mean();
  // For infinite-variance tails (beta <= 1.3) at small sampling rates the
  // paper's Gaussian pairwise model systematically overestimates the
  // metric (the summary_claims ablation decomposes this bias; the hybrid
  // pairwise model corrects it). Cover that documented model bias
  // explicitly instead of relying on the Monte-Carlo stderr happening to
  // be large for the particular seed stream.
  const double model_bias_slack =
      (param.beta <= 1.3 && param.p <= 0.05) ? 0.35 * model.metric : 0.0;
  const double band =
      5.0 * mc.ranking_stderr() + 0.12 * mc_mean + 0.05 + model_bias_slack;
  EXPECT_NEAR(model.metric, mc_mean, band)
      << "n=" << param.n << " t=" << param.t << " p=" << param.p
      << " beta=" << param.beta;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RankingVsMc,
    ::testing::Values(McAgreementCase{2000, 1, 0.10, 1.5},
                      McAgreementCase{2000, 5, 0.10, 1.5},
                      McAgreementCase{2000, 10, 0.30, 1.5},
                      McAgreementCase{5000, 5, 0.05, 1.5},
                      McAgreementCase{5000, 10, 0.10, 1.2},
                      McAgreementCase{5000, 2, 0.20, 2.5},
                      McAgreementCase{10000, 10, 0.10, 1.5},
                      McAgreementCase{10000, 5, 0.02, 1.2}));

class DetectionVsMc : public ::testing::TestWithParam<McAgreementCase> {};

TEST_P(DetectionVsMc, ModelWithinMcConfidenceBand) {
  const auto param = GetParam();
  auto cfg = make_config(param.n, param.t, param.p, param.beta);
  const auto model = fc::evaluate_detection_model(cfg);
  const auto mc = fc::run_mc_model(cfg, 60, /*seed=*/77);
  const double mc_mean = mc.detection_metric.mean();
  const double band = 5.0 * mc.detection_stderr() + 0.12 * mc_mean + 0.05;
  EXPECT_NEAR(model.metric, mc_mean, band)
      << "n=" << param.n << " t=" << param.t << " p=" << param.p
      << " beta=" << param.beta;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetectionVsMc,
    ::testing::Values(McAgreementCase{2000, 5, 0.10, 1.5},
                      McAgreementCase{2000, 10, 0.05, 1.5},
                      McAgreementCase{5000, 10, 0.10, 1.2},
                      McAgreementCase{5000, 5, 0.02, 1.5},
                      McAgreementCase{10000, 10, 0.05, 1.5}));

// ---------------------------------------------------------------------------
// Structural properties of the models (the paper's qualitative findings)
// ---------------------------------------------------------------------------

TEST(RankingModel, MetricDecreasesWithSamplingRate) {
  double prev = std::numeric_limits<double>::infinity();
  for (double p : {0.001, 0.01, 0.1, 0.5}) {
    const double m = fc::evaluate_ranking_model(make_config(100000, 10, p)).metric;
    EXPECT_LT(m, prev) << p;
    prev = m;
  }
}

TEST(RankingModel, MetricIncreasesWithT) {
  // Fig. 4: more top flows are harder to rank.
  double prev = 0.0;
  for (std::int64_t t : {1, 2, 5, 10, 25}) {
    const double m = fc::evaluate_ranking_model(make_config(100000, t, 0.01)).metric;
    EXPECT_GT(m, prev) << t;
    prev = m;
  }
}

TEST(RankingModel, HeavierTailRanksBetter) {
  // Fig. 6: smaller beta (heavier tail) => better ranking.
  const double heavy =
      fc::evaluate_ranking_model(make_config(100000, 10, 0.05, 1.2)).metric;
  const double light =
      fc::evaluate_ranking_model(make_config(100000, 10, 0.05, 2.5)).metric;
  EXPECT_LT(heavy, light);
}

TEST(RankingModel, MoreFlowsRankBetter) {
  // Fig. 8: larger N (with Pareto sizes) => better ranking.
  const double small_n =
      fc::evaluate_ranking_model(make_config(140000, 10, 0.01)).metric;
  const double large_n =
      fc::evaluate_ranking_model(make_config(3500000, 10, 0.01)).metric;
  EXPECT_LT(large_n, small_n);
  // Sec. 6.3 claims N=3.5M is "very accurate even at 0.1%". Neither the
  // model nor Monte Carlo reproduces metric < 1 there (see "Model
  // fidelity" in scenarios/figures/README.md), but the order-of-magnitude
  // improvement over N=140K does hold.
  const double huge =
      fc::evaluate_ranking_model(make_config(3500000, 10, 0.001)).metric;
  const double modest =
      fc::evaluate_ranking_model(make_config(140000, 10, 0.001)).metric;
  EXPECT_LT(huge * 10.0, modest);
}

TEST(RankingModel, HybridPairwiseTamesGaussianTailBias) {
  // At Internet scale and low p the Gaussian Eq. (2) overstates swaps with
  // the ~N tiny flows by more than an order of magnitude; the hybrid
  // pairwise model removes that term (library extension, see DESIGN.md).
  auto cfg = make_config(3500000, 10, 0.001);
  const double gaussian = fc::evaluate_ranking_model(cfg).metric;
  cfg.pairwise = fc::PairwiseModel::kHybrid;
  const double hybrid = fc::evaluate_ranking_model(cfg).metric;
  EXPECT_LT(hybrid * 5.0, gaussian);
  // Unordered pair counting removes Eq. (3)'s top-top double count on top.
  cfg.counting = fc::PairCounting::kUnordered;
  const double unordered = fc::evaluate_ranking_model(cfg).metric;
  EXPECT_LT(unordered, hybrid);
}

TEST(RankingModel, HybridEqualsGaussianWhenSamplingIsHealthy) {
  // With p*S comfortably large for all relevant flows, the two pairwise
  // models coincide.
  auto cfg = make_config(50000, 5, 0.3);
  const double gaussian = fc::evaluate_ranking_model(cfg).metric;
  cfg.pairwise = fc::PairwiseModel::kHybrid;
  const double hybrid = fc::evaluate_ranking_model(cfg).metric;
  EXPECT_NEAR(hybrid, gaussian, 0.05 * std::max(gaussian, 1e-9));
}

TEST(Misranking, HybridMatchesExactPairwise) {
  // The hybrid two-flow probability must track the exact Eq. (1) across
  // regimes, including where the Gaussian fails (pS << 1).
  for (double p : {0.001, 0.01, 0.1}) {
    for (std::int64_t s1 : {3, 40, 400, 5000}) {
      for (std::int64_t s2 : {10, 300, 8000}) {
        const double exact = fc::misranking_exact(s1, s2, p);
        const double hybrid = fc::misranking_hybrid(
            static_cast<double>(s1), static_cast<double>(s2), p);
        EXPECT_NEAR(hybrid, exact, 0.02 + 0.05 * exact)
            << "p=" << p << " s1=" << s1 << " s2=" << s2;
      }
    }
  }
}

TEST(RankingModel, PaperScaleFiveTupleNumbers) {
  // Fig. 4 anchor points (N=0.7M, beta=1.5): at p=0.1% ranking is
  // impossible (metric >> 1); at p=50% the top flow is ranked correctly.
  EXPECT_GT(fc::evaluate_ranking_model(make_config(700000, 10, 0.001)).metric, 100.0);
  EXPECT_LT(fc::evaluate_ranking_model(make_config(700000, 1, 0.5)).metric, 1.0);
  // t=5 at 1% is around the acceptability boundary (order of magnitude).
  const double m = fc::evaluate_ranking_model(make_config(700000, 5, 0.01)).metric;
  EXPECT_GT(m, 0.01);
  EXPECT_LT(m, 100.0);
}

TEST(DetectionModel, EasierThanRanking) {
  // Sec. 7: detection needs roughly an order of magnitude less sampling.
  for (double p : {0.01, 0.05, 0.1}) {
    const auto cfg = make_config(100000, 10, p);
    const double rank = fc::evaluate_ranking_model(cfg).metric;
    const double detect = fc::evaluate_detection_model(cfg).metric;
    EXPECT_LT(detect, rank) << p;
  }
}

TEST(DetectionModel, EquivalentToRankingForTopOne) {
  // Sec. 7.1: for t = 1 the two problems coincide.
  for (double p : {0.01, 0.1}) {
    const auto cfg = make_config(50000, 1, p);
    const double rank = fc::evaluate_ranking_model(cfg).metric;
    const double detect = fc::evaluate_detection_model(cfg).metric;
    EXPECT_NEAR(detect, rank, 0.02 * std::max(rank, 1e-6)) << p;
  }
}

TEST(DetectionModel, MetricDecreasesWithSamplingRate) {
  double prev = std::numeric_limits<double>::infinity();
  for (double p : {0.001, 0.01, 0.1}) {
    const double m = fc::evaluate_detection_model(make_config(100000, 10, p)).metric;
    EXPECT_LT(m, prev);
    prev = m;
  }
}

TEST(Models, InvalidConfigurations) {
  auto cfg = make_config(1000, 10, 0.1);
  cfg.t = 0;
  EXPECT_THROW((void)fc::evaluate_ranking_model(cfg), std::invalid_argument);
  cfg.t = 2000;
  EXPECT_THROW((void)fc::evaluate_ranking_model(cfg), std::invalid_argument);
  cfg = make_config(1000, 10, 0.0);
  EXPECT_THROW((void)fc::evaluate_ranking_model(cfg), std::invalid_argument);
  cfg = make_config(1000, 10, 0.1);
  cfg.size_dist = nullptr;
  EXPECT_THROW((void)fc::evaluate_ranking_model(cfg), std::invalid_argument);
  EXPECT_THROW((void)fc::evaluate_detection_model(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Discrete exact model
// ---------------------------------------------------------------------------

TEST(DiscreteModel, AgreesWithContinuousModelOnSmallScale) {
  // A light enough tail that max_size=2000 captures essentially all mass.
  fc::DiscreteModelConfig dcfg;
  dcfg.n = 2000;
  dcfg.t = 5;
  dcfg.p = 0.2;
  dcfg.max_size = 3000;
  dcfg.tail_tolerance = 1e-4;
  dcfg.size_pmf = std::make_shared<fd::Discretized>(
      std::make_unique<fd::Pareto>(fd::Pareto::from_mean(9.6, 2.5)));
  const auto exact = fc::evaluate_discrete_ranking_model(dcfg);

  auto ccfg = make_config(2000, 5, 0.2, 2.5);
  const auto cont = fc::evaluate_ranking_model(ccfg);
  // Two independent numerical paths (discrete+exact-Pm vs continuous+
  // Gaussian-Pm); agreement within ~15% validates both.
  EXPECT_NEAR(exact.metric, cont.metric, 0.2 * std::max(exact.metric, 0.05));
}

TEST(DiscreteModel, GaussianPairwiseToggleIsolatesApproximationError) {
  fc::DiscreteModelConfig dcfg;
  dcfg.n = 1000;
  dcfg.t = 3;
  dcfg.p = 0.3;
  dcfg.max_size = 2500;
  dcfg.tail_tolerance = 1e-4;
  dcfg.size_pmf = std::make_shared<fd::Discretized>(
      std::make_unique<fd::Pareto>(fd::Pareto::from_mean(9.6, 2.5)));
  const auto with_exact_pm = fc::evaluate_discrete_ranking_model(dcfg);
  dcfg.gaussian_pairwise = true;
  const auto with_gaussian_pm = fc::evaluate_discrete_ranking_model(dcfg);
  // Same distribution machinery, only Pm differs; should be close at p=0.3.
  EXPECT_NEAR(with_exact_pm.metric, with_gaussian_pm.metric,
              0.35 * std::max(with_exact_pm.metric, 0.02));
}

TEST(DiscreteModel, AgreesWithMonteCarlo) {
  fc::DiscreteModelConfig dcfg;
  dcfg.n = 1000;
  dcfg.t = 5;
  dcfg.p = 0.15;
  dcfg.max_size = 3000;
  dcfg.tail_tolerance = 2e-4;
  dcfg.size_pmf = std::make_shared<fd::Discretized>(
      std::make_unique<fd::Pareto>(fd::Pareto::from_mean(9.6, 2.5)));
  const auto exact = fc::evaluate_discrete_ranking_model(dcfg);

  auto mc_cfg = make_config(1000, 5, 0.15, 2.5);
  const auto mc = fc::run_mc_model(mc_cfg, 80, 4321);
  EXPECT_NEAR(exact.metric, mc.ranking_metric.mean(),
              5.0 * mc.ranking_stderr() + 0.12 * mc.ranking_metric.mean() + 0.05);
}

TEST(DiscreteModel, RejectsHeavyTailBeyondSupportCap) {
  fc::DiscreteModelConfig dcfg;
  dcfg.n = 1000;
  dcfg.t = 5;
  dcfg.p = 0.1;
  dcfg.max_size = 500;  // Pareto(beta=1.5) has far too much mass above 500
  dcfg.size_pmf = std::make_shared<fd::Discretized>(
      std::make_unique<fd::Pareto>(fd::Pareto::from_mean(9.6, 1.5)));
  EXPECT_THROW((void)fc::evaluate_discrete_ranking_model(dcfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

TEST(Planner, FindsRateMeetingTarget) {
  auto cfg = make_config(100000, 10, /*p=*/0.0);
  const auto plan = fc::plan_sampling_rate(cfg, fc::PlannerGoal::kRankTopT, 1.0);
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.metric, 1.0);
  // Just below the planned rate the target must be missed.
  cfg.p = plan.sampling_rate * 0.8;
  EXPECT_GT(fc::evaluate_ranking_model(cfg).metric, 1.0);
}

TEST(Planner, DetectionNeedsLowerRateThanRanking) {
  auto cfg = make_config(100000, 10, 0.0);
  const auto rank_plan = fc::plan_sampling_rate(cfg, fc::PlannerGoal::kRankTopT, 1.0);
  const auto det_plan = fc::plan_sampling_rate(cfg, fc::PlannerGoal::kDetectTopT, 1.0);
  ASSERT_TRUE(rank_plan.feasible);
  ASSERT_TRUE(det_plan.feasible);
  EXPECT_LT(det_plan.sampling_rate, rank_plan.sampling_rate);
}

TEST(Planner, ReportsInfeasibleTargets) {
  auto cfg = make_config(5000, 25, 0.0);
  // Demand an absurd accuracy at a capped maximum rate.
  const auto plan =
      fc::plan_sampling_rate(cfg, fc::PlannerGoal::kRankTopT, 1e-9, 1e-4, 0.02);
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, InvalidArguments) {
  auto cfg = make_config(1000, 5, 0.0);
  EXPECT_THROW((void)fc::plan_sampling_rate(cfg, fc::PlannerGoal::kRankTopT, 0.0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)fc::plan_sampling_rate(cfg, fc::PlannerGoal::kRankTopT, 1.0, 0.5, 0.1),
      std::invalid_argument);
}
