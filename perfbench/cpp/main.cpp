// perfbench — runs one workload of the pipeline benchmark and prints its
// metrics. Normally started through run.py, which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ledger; the traced run also prints its own end-to-end figures on a
// line starting "traced-e2e " and writes its spans as JSON lines.
// Scratch files live in a fresh directory under --work-dir (default
// .bench_build/tmp) that is removed at exit.
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/tmp";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <reproduce_270d|serve_loopback|"
               "plan_whatif|ingest_recover> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           json_number(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  return out + "}";
}

// Removes the scratch directory on every exit path out of main.
struct TmpDir {
  std::string path;
  ~TmpDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::ios::sync_with_stdio(false);
  const Options options = parse(argc, argv);

  void (*workload)(Run&, Clock::time_point) = nullptr;
  if (options.workload == "reproduce_270d") workload = run_reproduce;
  if (options.workload == "serve_loopback") workload = run_serve_loopback;
  if (options.workload == "plan_whatif") workload = run_plan_whatif;
  if (options.workload == "ingest_recover") workload = run_ingest_recover;
  if (workload == nullptr) usage("unknown workload " + options.workload);

  TmpDir tmp;
  Run run(options.trace, process_start);
  run.workload = options.workload;
  run.seed = options.seed;
  run.seconds = options.seconds;
  run.seeds = derive_seeds(options.seed);
  try {
    std::filesystem::create_directories(options.work_dir);
    std::string pattern =
        (std::filesystem::path(options.work_dir) / "run-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory under " +
                               options.work_dir);
    }
    tmp.path = pattern;
    run.tmp_dir = pattern;

    std::cout << "perfbench " << run.workload << " seed=" << run.seed
              << " seconds=" << run.seconds << " trace=" << options.trace
              << " threads=" << bench_threads() << '\n';
    workload(run, process_start);
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << run.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  for (const std::string& f : run.failures) {
    std::cout << "CHECK FAILED: " << f << '\n';
  }
  Metrics printed = run.e2e;
  if (options.trace) {
    std::cout << "traced-e2e " << metrics_json(run.e2e) << '\n';
    const std::string kept =
        (std::filesystem::path(options.work_dir) /
         ("spans-" + run.workload + "-" + std::to_string(run.seed) + ".jsonl"))
            .string();
    if (run.trace.write_spans(kept)) {
      std::cout << "spans: " << run.trace.span_count() << " written to "
                << kept << '\n';
    } else {
      std::cerr << "perfbench: cannot write spans to " << kept << '\n';
      return 1;
    }
    printed = run.trace.layer_values();
  }
  for (const auto& [name, value] : run.e2e) {
    std::cout << "  " << name << " = " << json_number(value.first) << ' '
              << value.second << '\n';
  }
  const bool correct = run.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed
            << ", \"metrics\": " << metrics_json(printed) << "}" << std::endl;
  return correct && run.attempted > 0 ? 0 : 1;
}
