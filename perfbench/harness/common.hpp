// Shared plumbing of the benchmark harness: the clock, the in-memory span
// recorder of the traced runs, the per-run output record and its JSON
// form, and the small digest used by the output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/packet/records.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Host-wide CPU time from /proc/stat, in clock ticks (zeros when it
/// cannot be read).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
};
[[nodiscard]] CpuTimes cpu_times();

/// What one harness invocation asks for.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string spans_path;  ///< traced runs write their spans here
  CpuTimes cpu_at_start;   ///< for the share of the run the host stole
};

/// Order-sensitive 64-bit digest (FNV-1a over the raw bytes fed to it).
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      state_ ^= b;
      state_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One recorded span. `parent` is -1 for a root; spans of one result
/// share `result` (-1 outside any result).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t result = -1;
  std::uint32_t thread = 0;
};

/// In-memory span recorder. Spans stay in memory until write() at the
/// end of the run. Safe to use from pool workers (one mutex; spans are
/// coarse, at most a few thousand per second).
class Tracer {
 public:
  /// Reserves an id for a span whose interval is known only later (the
  /// result roots: a result ends when it is emitted).
  std::int64_t reserve(const char* name, std::int64_t parent, std::int64_t result) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, 0, 0, parent, result, thread_locked()});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id, std::int64_t start_ns, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].start_ns = start_ns;
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }
  std::int64_t record(const char* name, std::int64_t parent, std::int64_t result,
                      std::int64_t start_ns, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, result, thread_locked()});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Writes the spans as tab-separated lines:
  /// id, parent, result, thread, name, start_ns, end_ns.
  void write(const std::string& path) const;

 private:
  /// Small dense id for the calling thread (0 = first thread seen).
  /// Caller holds mutex_.
  std::uint32_t thread_locked() {
    return threads_.try_emplace(std::this_thread::get_id(),
                                static_cast<std::uint32_t>(threads_.size()))
        .first->second;
  }

  std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Times one call into a layer as a span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent, std::int64_t result)
      : tracer_(tracer), name_(name), parent_(parent), result_(result), start_(now_ns()) {}
  ~ScopedSpan() { tracer_.record(name_, parent_, result_, start_, now_ns()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::int64_t parent_, result_, start_;
};

/// One output check, run outside the timed phase.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one harness invocation reports.
struct RunOutput {
  std::string workload;
  std::string work_unit;
  std::vector<double> setup_s;
  std::vector<double> results_ms;  ///< untraced timed results
  double work_units = 0.0;         ///< completed in the counted results
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  // Traced runs only.
  std::vector<double> traced_results_ms;
  std::uint64_t replica_compared = 0;
  std::uint64_t replica_mismatched = 0;
  std::map<std::string, double> counters;
};

/// Flow-table work runs on the shard workers, off the driver's path, so
/// a traced run times it by replaying one window's sampled packets into a
/// fresh flowtable::FlowTable, in the 4096-packet slices the driver pulls.
/// The replay is recorded as a root span named flowtable.add_batch.
[[nodiscard]] flowrank::flowtable::FlowTable replay_window(
    const std::vector<flowrank::packet::PacketRecord>& sampled, Tracer& tracer);

/// Resident-set high-water mark of this process, in KiB.
[[nodiscard]] long peak_rss_kb();

/// Writes `out` plus the host/build stamp as one JSON object.
void write_output_json(const RunOutput& out, const RunArgs& args,
                       const std::string& path);

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);

/// Closed loop with one driver thread: calls `one(i)` for i = 0, 1, ...
/// back to back until `seconds` have passed and returns each call's wall
/// time in ms. The call that crosses the deadline is still counted.
template <typename One>
std::vector<double> closed_loop(double seconds, One&& one) {
  std::vector<double> results;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t mark = now_ns();
  for (std::size_t i = 0; mark < deadline; ++i) {
    one(i);
    const std::int64_t end = now_ns();
    results.push_back(ns_to_ms(end - mark));
    mark = end;
  }
  return results;
}

/// Set-up repetitions per run; the reported set-up time is their median.
inline constexpr int kSetupReps = 7;

/// Runs `setup` kSetupReps times, recording each wall time, and returns
/// the last set-up's state.
template <typename Setup>
auto repeated_setup(RunOutput& out, Setup&& setup) {
  for (int rep = 1;; ++rep) {
    const std::int64_t start = now_ns();
    auto state = setup();
    out.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (rep >= kSetupReps) return state;
  }
}

// The four workloads. Each runs its set-up, its timed closed loop (or,
// when args.traced, an untraced and a traced phase of half the time
// each) and its output checks, filling `out`.
void run_monitor_sprint(const RunArgs& args, RunOutput& out, Tracer* tracer);
void run_mc_abilene(const RunArgs& args, RunOutput& out, Tracer* tracer);
void run_exact_plan(const RunArgs& args, RunOutput& out, Tracer* tracer);
void run_fleet_churn(const RunArgs& args, RunOutput& out, Tracer* tracer);

/// Negative self-tests: each workload's checks pass on a real output and
/// fail on a perturbed one. Returns the number of failed expectations.
int self_test_monitor_sprint();
int self_test_mc_abilene();
int self_test_exact_plan();
int self_test_fleet_churn();

}  // namespace perfbench
