// The measurement campaign engine (§4.1 "Experiment").
//
// Mirrors the paper's design: every probe pings cloud datacenters on a
// fixed interval (every three hours) for months. Targets are the regions
// on the probe's own continent; probes in Africa and South America — whose
// continents are under-served — additionally target Europe and North
// America respectively. Quota limits (RIPE Atlas credits) are modelled by
// rotating each tick through the probe's target list rather than pinging
// every region every tick; over a long campaign every probe still covers
// its whole target set many times.
//
// The engine is *resilient* the way the real platform is: an optional
// fault schedule (src/faults) injects outages, flaps, storms, hangs,
// skew and blackouts; fully-lost bursts can be retried with capped
// exponential backoff; probes whose recent bursts are mostly bad enter
// quarantine until a cooldown elapses. All resilience features default
// to off, and a campaign without them is byte-identical to the
// pre-fault engine. Determinism holds per (seed, fault schedule) and is
// independent of the thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "atlas/measurement.hpp"
#include "atlas/path_cache.hpp"
#include "atlas/placement.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/resilience.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace shears::obs {
class MetricsRegistry;
}  // namespace shears::obs

namespace shears::atlas {

struct CampaignConfig {
  /// Campaign length; the paper draws on nine months (~270 days).
  int duration_days = 270;
  /// Scheduling interval between ping bursts per probe.
  int interval_hours = 3;
  /// Packets per ping burst (Atlas default 3).
  int packets_per_ping = 3;
  /// Targets each probe measures per tick (credit-quota rotation).
  int targets_per_tick = 1;
  /// Probability a probe is online at a given tick. Real Atlas probes
  /// disconnect, reboot and move; 1.0 disables churn. Offline ticks
  /// produce no records (they are absent, not lost bursts).
  double probe_uptime = 1.0;
  /// Campaign RNG seed; the dataset is a pure function of
  /// (fleet, registry, model, fault schedule, config).
  std::uint64_t seed = 7;
  /// Worker threads; 0 = hardware concurrency. Results are identical
  /// regardless of thread count.
  unsigned threads = 0;
  /// Sample through the lane-batched SIMD kernel (net/burst_lanes.hpp):
  /// up to 8 probes advance together, with the transcendental math
  /// evaluated as vectorized array ops. Draw-for-draw aligned with the
  /// scalar engine — every record's structure (losses, counts, fault
  /// masks) is identical — but RTT values go through polynomial exp/log
  /// and drift within a bounded epsilon, so batched datasets are gated
  /// by the scalar-vs-batched differential suite (src/check), not the
  /// golden byte-identity checksums. Off by default. Configurations the
  /// kernel does not cover (retries, quarantine, packets_per_ping >
  /// net::kMaxBatchedPackets) silently fall back to the scalar engine —
  /// see batched_eligible().
  bool batched = false;
  /// Retry policy for fully-lost bursts; off by default.
  faults::RetryPolicy retry{};
  /// Probe quarantine policy; off by default.
  faults::QuarantinePolicy quarantine{};

  /// Throws std::invalid_argument on non-positive knobs, probe_uptime
  /// outside (0, 1], packets that overflow the record's counters, an
  /// interval longer than the whole campaign (zero ticks), or an
  /// invalid retry/quarantine policy — a misconfigured campaign must
  /// fail loudly instead of producing an empty or garbage dataset.
  void validate() const;
};

/// Aggregate resilience counters of one campaign run; deterministic for
/// a given (seed, fault schedule) like the dataset itself.
struct CampaignTelemetry {
  std::size_t bursts = 0;           ///< records produced
  std::size_t bursts_retried = 0;   ///< records needing >= 1 retry
  std::size_t retries = 0;          ///< total retry attempts spent
  std::size_t bursts_recovered = 0; ///< lost at first attempt, then delivered
  std::size_t bursts_faulted = 0;   ///< records with fault exposure flags
  std::size_t bursts_cached = 0;    ///< attempts served by the path cache
  std::size_t bursts_batched = 0;   ///< bursts sampled by the lane kernel
  std::size_t hang_ticks = 0;       ///< probe-ticks lost to firmware hangs
  std::size_t quarantine_entries = 0;
  std::size_t quarantined_ticks = 0;  ///< probe-ticks sidelined
  /// Per-kind fault activations across recorded bursts.
  faults::FaultKindCounts fault_kinds{};

  void merge(const CampaignTelemetry& other) noexcept;
};

/// Receives a campaign's committed records — the serving layer's burst
/// publication hook (serve::ColumnarStore implements it, so a running
/// campaign streams into a live store without a rebuild). Rows arrive in
/// dataset order, once per run, after the per-probe shards are merged;
/// the span is only valid for the duration of the call.
class MeasurementSink {
 public:
  virtual ~MeasurementSink() = default;
  virtual void publish(std::span<const Measurement> rows) = 0;
};

class Campaign {
 public:
  /// `fleet`, `registry`, and `model` must outlive the campaign and any
  /// dataset it produces.
  Campaign(const ProbeFleet& fleet, const topology::CloudRegistry& registry,
           const net::LatencyModel& model, CampaignConfig config);

  /// As above, with fault injection: `schedule` (may be null or empty for
  /// a clean run) must outlive the campaign.
  Campaign(const ProbeFleet& fleet, const topology::CloudRegistry& registry,
           const net::LatencyModel& model, CampaignConfig config,
           const faults::FaultSchedule* schedule);

  /// Total scheduler ticks ( duration / interval ).
  [[nodiscard]] std::uint32_t tick_count() const noexcept;

  /// Region indices (into registry.regions()) a probe targets: its own
  /// continent plus the §4.1 fallback continent for AF/SA probes. May be
  /// empty when a footprint snapshot has no reachable region. The span
  /// views the precomputed per-continent list and stays valid as long as
  /// the campaign does.
  [[nodiscard]] std::span<const std::uint16_t> targets_for(
      const Probe& p) const noexcept;

  /// Runs the whole campaign deterministically and returns the dataset.
  [[nodiscard]] MeasurementDataset run() const;

  /// As run(), also filling the resilience telemetry counters.
  [[nodiscard]] MeasurementDataset run(CampaignTelemetry& telemetry) const;

  /// Number of records run() produces at full uptime with no faults; an
  /// upper bound under churn, hangs, or quarantine.
  [[nodiscard]] std::size_t expected_record_count() const;

  /// Whether run() will use the lane-batched kernel: config.batched is
  /// set and the configuration is one the kernel covers (no retries, no
  /// quarantine, burst size within net::kMaxBatchedPackets). Churn and fault schedules *are* covered —
  /// the SoA fault path keeps perturbed windows on the kernel.
  [[nodiscard]] bool batched_eligible() const noexcept;

  /// Publishes per-run telemetry into `metrics` after every run():
  /// campaign.* counters (bursts, retries, quarantines, path-cache hits),
  /// faults.activations.* per kind, the campaign.wall_* gauges, and the
  /// campaign.shard_wall_ms histogram. Counters are accumulated in the
  /// per-shard CampaignTelemetry and published once per run, so the
  /// per-burst hot loop never touches an atomic or lock, and the dataset
  /// bytes are untouched — the registry only observes, it never feeds
  /// back into sampling. Pass nullptr to detach. `metrics` must outlive
  /// the campaign.
  void attach_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Publishes every run()'s records into `sink` (dataset order, after
  /// shard merge) — how a live serving store ingests fresh campaigns.
  /// Purely observational: the dataset bytes are identical with or
  /// without a sink. Pass nullptr to detach; `sink` must outlive the
  /// campaign.
  void attach_sink(MeasurementSink* sink) noexcept { sink_ = sink; }

 private:
  void run_probe_range(std::size_t begin, std::size_t end,
                       std::vector<Measurement>& out,
                       CampaignTelemetry& telemetry) const;

  /// Lane-batched twin of run_probe_range (campaign_batched.cpp): groups
  /// the range's probes into 8-lane blocks per continent and samples
  /// them through net::sample_burst_lanes. Per-probe output is
  /// independent of block composition (each lane consumes only its own
  /// stream), so sharding and thread count still do not change the
  /// dataset.
  void run_probe_range_batched(std::size_t begin, std::size_t end,
                               std::vector<Measurement>& out,
                               CampaignTelemetry& telemetry) const;

  /// Pushes one run's telemetry into metrics_; no-op when detached.
  void publish_metrics(const CampaignTelemetry& telemetry,
                       std::chrono::steady_clock::time_point run_start) const;

  const ProbeFleet* fleet_;
  const topology::CloudRegistry* registry_;
  const net::LatencyModel* model_;
  CampaignConfig config_;
  const faults::FaultSchedule* schedule_ = nullptr;  ///< may be null
  obs::MetricsRegistry* metrics_ = nullptr;          ///< may be null
  MeasurementSink* sink_ = nullptr;                  ///< may be null
  /// Per-continent target lists, fallback included, precomputed once.
  std::vector<std::uint16_t> targets_by_continent_[geo::kContinentCount];
  /// Probe × region sampling cache, built once at construction; every
  /// burst samples through it.
  PathCache cache_;
};

}  // namespace shears::atlas
