// flowrank_perfbench: the benchmark harness behind perfbench/run.py.
//
//   flowrank_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --out result.json [--spans spans.tsv]
//   flowrank_perfbench --self-test
//
// Writes one JSON object of raw samples (set-up times, per-result wall
// times, work, failures, check verdicts, host/build stamp); run.py turns
// it into metrics. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <string>

#include "common.hpp"
#include "flowrank/report/result_sink.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.result << '\t' << s.thread << '\t'
       << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

flowrank::flowtable::FlowTable replay_window(
    const std::vector<flowrank::packet::PacketRecord>& sampled, Tracer& tracer) {
  constexpr std::size_t kSlice = 4096;
  flowrank::flowtable::FlowTable table(flowrank::flowtable::FlowTable::Options{});
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < sampled.size(); i += kSlice) {
    table.add_batch(std::span(sampled.data() + i, std::min(kSlice, sampled.size() - i)));
  }
  tracer.record("flowtable.add_batch", -1, -1, start, now_ns());
  return table;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec;
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

std::string json_list(const std::vector<double>& values) {
  std::ostringstream os;
  os << std::setprecision(17) << '[';
  for (std::size_t i = 0; i < values.size(); ++i) os << (i ? "," : "") << values[i];
  os << ']';
  return os.str();
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string load_average() {
  double loads[3] = {0.0, 0.0, 0.0};
  if (getloadavg(loads, 3) != 3) return "unknown";
  std::ostringstream os;
  os << loads[0] << ' ' << loads[1] << ' ' << loads[2];
  return os.str();
}

}  // namespace

CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream is("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(is >> cpu) || cpu != "cpu") return t;
  for (std::uint64_t& f : field) is >> f;
  for (std::uint64_t f : field) t.total += f;
  t.steal = field[7];
  return t;
}

void write_output_json(const RunOutput& out, const RunArgs& args,
                       const std::string& path) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\n";
  os << "\"workload\": " << json_string(out.workload) << ",\n";
  os << "\"seed\": " << args.seed << ",\n";
  os << "\"traced\": " << (args.traced ? "true" : "false") << ",\n";
  os << "\"stamp\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"loadavg_at_start\": " << json_string(load_average())
     << ", \"library_version\": " << json_string(flowrank::report::build_version())
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE);
  const CpuTimes end = cpu_times();
  const double total = static_cast<double>(end.total - args.cpu_at_start.total);
  os << ", \"host_steal_frac\": "
     << (total > 0 ? static_cast<double>(end.steal - args.cpu_at_start.steal) / total : 0.0)
     << "},\n";
  os << "\"work_unit\": " << json_string(out.work_unit) << ",\n";
  os << "\"setup_s\": " << json_list(out.setup_s) << ",\n";
  os << "\"results_ms\": " << json_list(out.results_ms) << ",\n";
  os << "\"work_units\": " << out.work_units << ",\n";
  os << "\"attempted\": " << out.attempted << ",\n";
  os << "\"failed\": " << out.failed << ",\n";
  os << "\"peak_rss_kb\": " << peak_rss_kb() << ",\n";
  os << "\"checks\": [";
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << json_string(c.detail) << "}";
  }
  os << "],\n";
  os << "\"traced_results_ms\": " << json_list(out.traced_results_ms) << ",\n";
  os << "\"replica_compared\": " << out.replica_compared << ",\n";
  os << "\"replica_mismatched\": " << out.replica_mismatched << ",\n";
  os << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : out.counters) {
    os << (first ? "" : ", ") << json_string(name) << ": " << value;
    first = false;
  }
  os << "}\n}\n";
  std::ofstream file(path);
  file << os.str();
  if (!file) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: flowrank_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE [--spans FILE]\n"
               "       flowrank_perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "refusing to run: library build type is '" PERFBENCH_BUILD_TYPE
                 "', not Release\n";
    return 3;
  }
  RunArgs args;
  args.cpu_at_start = cpu_times();
  std::string out_path;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.traced = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return usage();
    }
  }

  try {
    if (self_test) {
      const int failures = self_test_monitor_sprint() + self_test_mc_abilene() +
                           self_test_exact_plan() + self_test_fleet_churn();
      std::cout << (failures == 0 ? "self-test: all checks reject perturbed outputs\n"
                                  : "self-test: FAILED\n");
      return failures == 0 ? 0 : 1;
    }
    if (out_path.empty() || !(args.seconds > 0.0)) return usage();
    if (args.traced && args.spans_path.empty()) return usage();

    RunOutput out;
    out.workload = args.workload;
    Tracer tracer;
    Tracer* traced = args.traced ? &tracer : nullptr;
    if (args.workload == "monitor_sprint") {
      run_monitor_sprint(args, out, traced);
    } else if (args.workload == "mc_abilene") {
      run_mc_abilene(args, out, traced);
    } else if (args.workload == "exact_plan") {
      run_exact_plan(args, out, traced);
    } else if (args.workload == "fleet_churn") {
      run_fleet_churn(args, out, traced);
    } else {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
    if (traced) tracer.write(args.spans_path);
    write_output_json(out, args, out_path);
  } catch (const std::exception& e) {
    std::cerr << "flowrank_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
