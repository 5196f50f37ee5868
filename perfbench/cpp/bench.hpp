// Shared plumbing of the pipeline benchmark: the run context every
// workload reports into, the per-layer ledger and span recorder of the
// traced run, the seed derivation and the generated world.
//
// The benchmark drives the program only through its public functions.
// Per-layer numbers come from timing those calls here, in the
// benchmark's own files; nothing inside the program is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace perfbench {

// The program's modules by their own names: atlas::, serve::, opt::, ...
using namespace shears;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worker threads for every pool the benchmark configures: 4, or fewer on
/// a smaller machine. Never 0, which the program reads as "all cores".
[[nodiscard]] std::size_t bench_threads();

/// The per-run seeds. The campaign and traffic seeds are derived from the
/// workload seed with a splitmix64 step over a fixed stream tag; the fleet
/// is the paper-scale default placement (PlacementConfig::seed), so a seed
/// changes the measurements and the request mix but not how much work the
/// fleet's geography makes. The program sees only the generated inputs.
struct Seeds {
  std::uint64_t fleet = 0;
  std::uint64_t campaign = 0;
  std::uint64_t traffic = 0;
};
[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

/// The paper-scale world: 3200 generated probes, the 101-region campaign
/// footprint and the default latency model. Held by pointer: campaigns
/// and stores keep references into it.
struct World {
  topology::CloudRegistry cloud;
  net::LatencyModel model;
  atlas::ProbeFleet fleet;

  World(std::uint64_t fleet_seed, std::size_t probes);
};
[[nodiscard]] std::unique_ptr<World> make_world(std::uint64_t fleet_seed,
                                                std::size_t probes = 3200);
/// The fleet alone, as ProbeFleet::generate places it.
[[nodiscard]] atlas::ProbeFleet make_fleet(std::uint64_t fleet_seed,
                                           std::size_t probes = 3200);

/// CampaignConfig defaults, except duration, seed and thread count.
[[nodiscard]] atlas::CampaignConfig campaign_config(std::uint64_t seed,
                                                    int days);

/// The median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty list).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Named metrics as (name, (value, unit)), in BENCHMARK.json order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// One recorded span. Times are microseconds since the run started.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by the spans of one served request
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Per-layer samples and spans of the traced run. With tracing off every
/// call is a cheap no-op, so the untraced run times the same code paths.
class Trace {
 public:
  Trace(bool on, Clock::time_point epoch) : on_(on), epoch_(epoch) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] double us_at(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] std::uint64_t next_id() { return ++next_id_; }

  /// Adds one sample of a per-layer metric (see trace.cpp for how the
  /// samples of each metric are reduced).
  void sample(std::string_view metric, double value);
  /// Adds finished spans, e.g. a client thread's buffer after it joins.
  void add_spans(std::vector<Span>&& spans);
  void add_span(Span span);

  /// Times `fn()` as one call into a layer: a span named after the metric
  /// (without its unit suffix), parented to the enclosing call, and one
  /// sample of `metric` in seconds. Main thread only.
  template <typename Fn>
  decltype(auto) call(std::string_view metric, Fn&& fn) {
    if (!on()) return fn();
    Guard guard(*this, metric);
    return fn();
  }

  /// Writes the spans as JSON lines; returns false when the file fails.
  [[nodiscard]] bool write_spans(const std::string& path) const;
  [[nodiscard]] std::size_t span_count() const;
  /// Every per-layer metric of BENCHMARK.json; a layer the workload never
  /// called reads 0.
  [[nodiscard]] Metrics layer_values() const;

 private:
  struct Guard {
    Guard(Trace& trace, std::string_view metric);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Trace& trace;
    std::string metric;
    std::uint64_t id;
    std::uint64_t parent;
    Clock::time_point start;
  };

  bool on_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  std::vector<std::uint64_t> stack_;  ///< open calls, main thread
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
};

/// What one workload run reports.
struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  Seeds seeds;
  Trace trace;
  std::string tmp_dir;  ///< removed at exit

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few check messages
  Metrics e2e;  ///< end-to-end metrics

  Run(bool trace_on, Clock::time_point epoch) : trace(trace_on, epoch) {}

  /// Counts one operation; `why` empty means its checks passed.
  void op(const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line on stdout, before the result line.
  static void say(const std::string& line);
};

/// Campaign::run as one ledger entry: atlas.campaign_s, the bursts and
/// bursts per second and, through attach_metrics, the slowest worker
/// shard and the serial merge (atlas.shard_max_s, atlas.merge_s).
[[nodiscard]] atlas::MeasurementDataset run_campaign(Trace& trace,
                                                     atlas::Campaign& campaign);

/// The set-up repetitions of every workload; setup_s is their median. The
/// first is timed from process start and pays the process's one-off costs
/// (first page faults, the scratch directory); one set-up alone spreads
/// more from run to run than the median of three.
inline constexpr int kSetups = 3;

/// setup_s plus peak_rss_mb; called by every workload at its end.
void report_common(Run& run, const std::vector<double>& setup_times);

// Workload entry points.
void run_reproduce(Run& run, Clock::time_point process_start);
void run_serve_loopback(Run& run, Clock::time_point process_start);
void run_plan_whatif(Run& run, Clock::time_point process_start);
void run_ingest_recover(Run& run, Clock::time_point process_start);

}  // namespace perfbench
