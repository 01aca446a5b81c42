// The unified experiment layer: every paper figure, ablation sweep and
// estimator-augmented workload is one declarative ExperimentSpec executed
// by one engine, with rows streamed to a report::ResultSink — experiments
// are data, not binaries.
//
// An ExperimentSpec extends ScenarioSpec (all scenario keys keep working)
// with a model axis and a sweep grammar. `model` is the one knob that
// picks the pipeline:
//
//   model = exact | mc | packet
//     exact  — the analytic models (quadrature ranking/detection,
//              optimal-rate and Gaussian-error grids; figs 1-11), one
//              row per grid cell, parallelized over the grid on the
//              shared exec::TaskPool. `exact-pairwise = exact-discrete`
//              switches metric=ranking cells to the integer-support
//              discrete model (Eqs. 1 and 3) backed by build-once
//              core::DiscreteModelContext tables, cached per distinct
//              (p, pmf, max-size, tail-tol) across the grid;
//     mc     — the trace-driven count-level Monte-Carlo simulation
//              (binomial thinning over per-bin counts; figs 12-16), one
//              row per (grid cell, rate, time bin);
//     packet — the production packet pipeline (stream → sampler →
//              sharded classifier → optional estimator → rank), one row
//              per (grid cell, rate, time bin).
//
//   sweep <param> = <lo>..<hi> log <count>     # log-spaced grid
//   sweep <param> = <lo>..<hi> lin <count>     # linearly spaced grid
//   sweep <param> = v1,v2,v3                   # explicit list
//
// Sweep axes form a row-major cartesian grid in declaration order (the
// CLI override is --sweep-<param>). Sweepable params: rate, t, n, beta,
// bin, duration, s1, s2 — validity depends on the model (e.g. s1/s2 are
// the exact optimal-rate/gaussian-error size grids; n is the exact-model
// population). A `sweep rate` on mc/packet replaces the `rates` list.
//
// Exact-model keys: metric = ranking|detection|optimal_rate|
// gaussian_error, n = <population>, rate = <fixed sampling rate>,
// target = <Pm,d for optimal_rate>, pairwise = gaussian|hybrid,
// counting = paper|unordered, exact-pairwise = gaussian|hybrid|
// exact-discrete, plus the exact-discrete knobs max-size = <support cap>
// and tail-tol = <pmf tail mass tolerance>.
//
// Packet-model estimator stage (closing the paper's sampled → estimated
// → ranked loop):
//   estimator = inversion | tcp_seq
//             | sample_and_hold:slots=K[,hold=H] | space_saving:slots=K
//
// Monitor mode (`mode = monitor` plus the scenario monitor/fault.* keys)
// turns a model=packet experiment into one continuous MonitorLoop run
// whose rows are periodic top-t snapshots with fault/shed accounting
// (see flowrank/monitor/monitor_loop.hpp). No sweeps, one sampling rate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flowrank/core/ranking_model.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sim/scenario.hpp"

namespace flowrank::sim {

/// Which execution model runs the experiment.
enum class ExperimentModel { kExact, kMc, kPacket };

/// What the exact model evaluates per grid cell.
enum class ExactMetric { kRanking, kDetection, kOptimalRate, kGaussianError };

/// One sweep axis: a named parameter and its grid values.
struct SweepAxis {
  std::string param;
  std::vector<double> values;
  std::string grammar;  ///< original grammar text, echoed into metadata
};

/// One experiment, as data. Scenario keys (trace source, bin, rates,
/// seeds, threads/shards, ...) are inherited; defaults run a laptop-scale
/// mc experiment.
struct ExperimentSpec : ScenarioSpec {
  ExperimentModel model = ExperimentModel::kMc;
  std::string description;  ///< one-liner shown by flowrank_experiments --list

  // --- exact-model knobs ---------------------------------------------------
  ExactMetric metric = ExactMetric::kRanking;
  std::int64_t exact_n = 700000;  ///< population N (the Sprint 5-tuple default)
  double exact_rate = 0.01;       ///< fixed sampling rate when rate is not swept
  double optimal_target = 1e-3;   ///< Pm,d for metric=optimal_rate
  core::PairwiseModel pairwise = core::PairwiseModel::kGaussian;
  core::PairCounting counting = core::PairCounting::kPaper;
  /// `exact-pairwise = exact-discrete`: run metric=ranking cells through
  /// the integer-support discrete model instead of the continuous
  /// quadrature (gaussian|hybrid values map onto `pairwise` above).
  bool exact_discrete = false;
  std::int64_t exact_max_size = 4096;  ///< discrete support cap (max-size)
  double exact_tail_tol = 1e-6;        ///< discrete tail tolerance (tail-tol)

  // --- packet-model estimator stage ---------------------------------------
  EstimatorStage estimator;
  std::string estimator_grammar = "none";

  // --- sweep grid ----------------------------------------------------------
  std::vector<SweepAxis> sweeps;  ///< row-major, declaration order
};

/// Parses one sweep grammar ("1e-4..1e-2 log 12", "0..1 lin 5",
/// "10,30,100"). Log/lin grids pin the last value to `hi` exactly (the
/// same convention as the historical figure rate grids). Throws
/// std::invalid_argument on grammar errors.
[[nodiscard]] std::vector<double> parse_sweep_values(const std::string& grammar);

/// Parses the estimator grammar (see header comment). "none" clears the
/// stage. Throws std::invalid_argument on grammar errors.
[[nodiscard]] EstimatorStage parse_estimator(const std::string& grammar);

/// Experiment-only keys (scenario keys come on top), sorted.
[[nodiscard]] const std::vector<std::string>& experiment_keys();

/// Applies one key=value entry: experiment keys, `sweep <param>` axes,
/// scenario keys. Throws std::invalid_argument on unknown keys.
void apply_experiment_entry(ExperimentSpec& spec, const std::string& key,
                            const std::string& value);

/// Parses a key=value experiment file (same format as scenario files;
/// `sweep <param> = <grammar>` declares an axis, later declarations of
/// the same param replace earlier ones).
[[nodiscard]] ExperimentSpec parse_experiment_file(const std::string& path);

/// Applies CLI overrides: every experiment/scenario key as `--key`, every
/// sweep axis as `--sweep-<param>`.
void apply_experiment_overrides(ExperimentSpec& spec, const util::Cli& cli);

/// Spec from CLI alone: `--spec file` (if given) then overrides.
[[nodiscard]] ExperimentSpec experiment_from_cli(const util::Cli& cli);

/// The full canonical key = value echo of a spec (what the sink's
/// run-metadata header records): every knob, in a fixed order, sweeps
/// last.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> experiment_echo(
    const ExperimentSpec& spec);

/// The column names run_experiment emits for this spec, in order: sweep
/// axes first, then the model's fixed columns.
[[nodiscard]] std::vector<std::string> experiment_columns(const ExperimentSpec& spec);

/// Runs the experiment end to end: opens the sink (metadata + columns),
/// streams every row in deterministic grid order (exact-model cells are
/// computed concurrently on the shared TaskPool — the sink reorders), and
/// closes the sink. Returns the number of rows emitted. Throws
/// std::invalid_argument on spec/model mismatches (e.g. an s1 sweep on a
/// packet experiment) before any output is written.
std::size_t run_experiment(const ExperimentSpec& spec, report::ResultSink& sink);

}  // namespace flowrank::sim
