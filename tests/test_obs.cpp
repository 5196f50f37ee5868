// The observability subsystem and its two contracts:
//
//   * fidelity — metric values published by an instrumented campaign
//     match the CampaignTelemetry ground truth, and snapshots round-trip
//     through JSONL exactly;
//   * non-perturbation — attaching a MetricsRegistry never changes the
//     dataset: the sampling-cache golden checksum (captured from the
//     pre-cache, pre-obs engine) must keep passing with instrumentation
//     compiled in and attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "check/world.hpp"
#include "core/access_comparison.hpp"
#include "core/analysis.hpp"
#include "faults/fault_schedule.hpp"
#include "net/latency_model.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "topology/registry.hpp"

namespace shears {
namespace {

// --- registry primitives ---------------------------------------------------

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("test.events");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), 4000u);
  EXPECT_EQ(registry.snapshot().counter("test.events"), 4000u);
}

TEST(Metrics, RegistryHandsOutStableReferences) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("a");
  // Force rebalancing pressure on the underlying container.
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i)).increment();
  }
  obs::Counter& again = registry.counter("a");
  EXPECT_EQ(&first, &again);
  first.add(7);
  EXPECT_EQ(registry.snapshot().counter("a"), 7u);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry registry;
  registry.gauge("g").set(1.5);
  registry.gauge("g").set(-2.25);
  EXPECT_EQ(registry.snapshot().gauge("g"), -2.25);
}

TEST(Metrics, HistogramTracksSummaryStatistics) {
  obs::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const obs::LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum_ms, 5050.0);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  // P² estimates on a uniform ramp land near the true quantiles.
  EXPECT_NEAR(s.p50_ms, 50.0, 5.0);
  EXPECT_NEAR(s.p90_ms, 90.0, 5.0);
  EXPECT_NEAR(s.p99_ms, 99.0, 5.0);
}

TEST(Metrics, SpanRecordsElapsedOnceAndNullSpanIsFree) {
  obs::MetricsRegistry registry;
  obs::LatencyHistogram& h = registry.histogram("span.ms");
  {
    obs::Span span(&h);
    span.stop();
    span.stop();  // second stop must not double-record
  }               // destructor after stop() must not record either
  EXPECT_EQ(h.summary().count, 1u);
  {
    obs::Span disabled(nullptr);  // must not crash or record anywhere
  }
  obs::Span via_registry(static_cast<obs::MetricsRegistry*>(nullptr), "x");
  EXPECT_EQ(registry.snapshot().find("x"), nullptr);
}

// --- snapshot export -------------------------------------------------------

TEST(Metrics, SnapshotOrdersSamplesByName) {
  obs::MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.gauge("alpha").set(2.0);
  registry.histogram("mid").record(3.0);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples().size(), 3u);
  EXPECT_EQ(snap.samples()[0].name, "alpha");
  EXPECT_EQ(snap.samples()[1].name, "mid");
  EXPECT_EQ(snap.samples()[2].name, "zeta");
}

TEST(Metrics, SnapshotJsonlRoundTripsExactly) {
  obs::MetricsRegistry registry;
  registry.counter("campaign.bursts").add(6144);
  registry.gauge("campaign.wall_ms_per_day").set(0.1 + 0.2);  // not exact
  obs::LatencyHistogram& h = registry.histogram("campaign.shard_wall_ms");
  h.record(1.25);
  h.record(3.75);
  h.record(0.5);
  const obs::Snapshot snap = registry.snapshot();

  std::stringstream buffer;
  snap.write_jsonl(buffer);
  const obs::Snapshot loaded = obs::Snapshot::read_jsonl(buffer);

  // Doubles print with max_digits10, so the round trip is bit-exact.
  ASSERT_EQ(loaded.samples().size(), snap.samples().size());
  for (std::size_t i = 0; i < snap.samples().size(); ++i) {
    EXPECT_EQ(loaded.samples()[i], snap.samples()[i]) << i;
  }
}

TEST(Metrics, SnapshotCsvHasHeaderAndOneRowPerMetric) {
  obs::MetricsRegistry registry;
  registry.counter("a").add(1);
  registry.gauge("b").set(2.0);
  std::stringstream buffer;
  registry.snapshot().write_csv(buffer);
  std::string line;
  ASSERT_TRUE(std::getline(buffer, line));
  EXPECT_EQ(line,
            "metric,kind,count,value,sum_ms,min_ms,max_ms,p50_ms,p90_ms,"
            "p99_ms");
  std::size_t rows = 0;
  while (std::getline(buffer, line)) ++rows;
  EXPECT_EQ(rows, 2u);
}

TEST(Metrics, SnapshotReadJsonlRejectsMalformedInput) {
  std::stringstream not_json("nope\n");
  EXPECT_THROW(obs::Snapshot::read_jsonl(not_json), std::runtime_error);
  std::stringstream bad_kind("{\"metric\":\"x\",\"kind\":\"timer\"}\n");
  EXPECT_THROW(obs::Snapshot::read_jsonl(bad_kind), std::runtime_error);
  std::stringstream bad_count(
      "{\"metric\":\"x\",\"kind\":\"counter\",\"count\":many}\n");
  EXPECT_THROW(obs::Snapshot::read_jsonl(bad_count), std::runtime_error);
  std::stringstream missing("{\"metric\":\"x\",\"kind\":\"gauge\"}\n");
  EXPECT_THROW(obs::Snapshot::read_jsonl(missing), std::runtime_error);
}

// --- campaign instrumentation ----------------------------------------------

using check::dataset_checksum;

/// Golden checksum of the small default campaign, captured from the
/// pre-cache engine (see test_sampling_cache.cpp). Instrumentation must
/// keep reproducing it bit for bit.
constexpr std::uint64_t kGoldenSmallDefault = 0xc651f46c9bbf3d01ULL;

atlas::ProbeFleet small_fleet() {
  atlas::PlacementConfig pc;
  pc.probe_count = 256;
  pc.seed = 5;
  return atlas::ProbeFleet::generate(pc);
}

atlas::CampaignConfig small_config() {
  atlas::CampaignConfig cc;
  cc.duration_days = 3;
  cc.seed = 7;
  cc.threads = 1;
  return cc;
}

TEST(CampaignObservability, AttachedRegistryDoesNotPerturbTheDataset) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  atlas::Campaign campaign(fleet, registry, model, small_config());
  obs::MetricsRegistry metrics;
  campaign.attach_metrics(&metrics);
  const auto dataset = campaign.run();
  EXPECT_EQ(dataset_checksum(dataset), kGoldenSmallDefault);
  EXPECT_FALSE(metrics.snapshot().empty());
}

TEST(CampaignObservability, CountersMatchCampaignGroundTruth) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  atlas::Campaign campaign(fleet, registry, model, small_config());
  obs::MetricsRegistry metrics;
  campaign.attach_metrics(&metrics);
  atlas::CampaignTelemetry telemetry;
  const auto dataset = campaign.run(telemetry);
  const obs::Snapshot snap = metrics.snapshot();

  EXPECT_EQ(snap.counter("campaign.bursts"), telemetry.bursts);
  EXPECT_EQ(snap.counter("campaign.bursts"), dataset.size());
  // The default config runs the cached fast path: every burst is a cache
  // hit, and the resilience counters stay zero.
  EXPECT_EQ(snap.counter("campaign.path_cache_hits"), dataset.size());
  EXPECT_EQ(snap.counter("campaign.retries"), 0u);
  EXPECT_EQ(snap.counter("campaign.bursts_faulted"), 0u);
  EXPECT_EQ(snap.counter("campaign.quarantine_entries"), 0u);
  // Wall gauges and the shard histogram are populated (values are wall
  // clock, so only their presence and plausibility are asserted).
  EXPECT_GT(snap.gauge("campaign.wall_ms"), 0.0);
  EXPECT_GT(snap.gauge("campaign.wall_ms_per_day"), 0.0);
  const obs::MetricSample* shard = snap.find("campaign.shard_wall_ms");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->count, 1u);  // threads = 1 -> one shard span
  // Clean runs register no fault-kind counters at all.
  EXPECT_EQ(snap.find("faults.activations.region-outage"), nullptr);
}

TEST(CampaignObservability, FaultedRunPublishesPerKindActivations) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  faults::FaultScheduleConfig fc;
  fc.seed = 21;
  fc.route_flap_rate = 0.05;
  fc.clock_skew_rate = 0.05;
  const faults::FaultSchedule schedule(fc);

  atlas::Campaign campaign(fleet, registry, model, small_config(), &schedule);
  obs::MetricsRegistry metrics;
  campaign.attach_metrics(&metrics);
  atlas::CampaignTelemetry telemetry;
  const auto dataset = campaign.run(telemetry);

  // Ground truth from the records themselves.
  std::uint64_t flapped = 0;
  std::uint64_t skewed = 0;
  for (const atlas::Measurement& m : dataset.records()) {
    if ((m.faults & faults::fault_bit(faults::FaultKind::kRouteFlap)) != 0) {
      ++flapped;
    }
    if ((m.faults & faults::fault_bit(faults::FaultKind::kClockSkew)) != 0) {
      ++skewed;
    }
  }
  ASSERT_GT(flapped + skewed, 0u);  // rates high enough to trigger

  const obs::Snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("faults.activations.route-flap"), flapped);
  EXPECT_EQ(snap.counter("faults.activations.clock-skew"), skewed);
  EXPECT_EQ(telemetry.fault_kinds.of(faults::FaultKind::kRouteFlap), flapped);
  EXPECT_EQ(telemetry.fault_kinds.of(faults::FaultKind::kClockSkew), skewed);
  EXPECT_EQ(telemetry.fault_kinds.total(), flapped + skewed);
  EXPECT_EQ(snap.counter("campaign.bursts_faulted"), telemetry.bursts_faulted);
}

TEST(CampaignObservability, TelemetryIsThreadCountInvariant) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  atlas::CampaignConfig cc = small_config();
  atlas::CampaignTelemetry single;
  (void)atlas::Campaign(fleet, registry, model, cc).run(single);
  cc.threads = 4;
  atlas::CampaignTelemetry multi;
  (void)atlas::Campaign(fleet, registry, model, cc).run(multi);

  EXPECT_EQ(single.bursts, multi.bursts);
  EXPECT_EQ(single.bursts_cached, multi.bursts_cached);
  EXPECT_EQ(single.fault_kinds.total(), multi.fault_kinds.total());
}

// --- analysis instrumentation ----------------------------------------------

TEST(AnalysisObservability, ShardScanTimingsArePublished) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const auto dataset =
      atlas::Campaign(fleet, registry, model, small_config()).run();

  obs::MetricsRegistry metrics;
  core::AnalysisOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  const auto with_metrics = core::country_min_latency(dataset, options);
  (void)core::per_probe_best(dataset, options);
  (void)core::best_region_samples_by_continent(dataset, options);
  (void)core::server_side_view(dataset, options);
  core::AccessComparisonOptions ac_options;
  ac_options.threads = 2;
  ac_options.metrics = &metrics;
  (void)core::compare_access(dataset, ac_options);

  const obs::Snapshot snap = metrics.snapshot();
  for (const char* name :
       {"core.country_min.shard_ms", "core.per_probe_best.shard_ms",
        "core.best_region_samples.shard_ms", "core.server_view.shard_ms",
        "core.access_comparison.shard_ms"}) {
    const obs::MetricSample* s = snap.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_GE(s->count, 1u) << name;
    EXPECT_GE(s->max_ms, s->min_ms) << name;
  }

  // Observation never changes the analysis results.
  core::AnalysisOptions plain;
  plain.threads = 2;
  const auto without = core::country_min_latency(dataset, plain);
  ASSERT_EQ(with_metrics.size(), without.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(with_metrics[i].country, without[i].country);
    EXPECT_EQ(with_metrics[i].min_rtt_ms, without[i].min_rtt_ms);
  }
}

}  // namespace
}  // namespace shears
