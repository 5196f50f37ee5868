// The sampling-cache determinism contract (DESIGN.md, "Sampling cache"):
//
//   * golden FNV-1a checksums captured from the recomputing engine (the
//     pre-cache one, and for the interval sweep the uncached engine it
//     was checked equal to) pin the exact bytes, so any silent divergence
//     (a reordered draw, a folded constant, an unsafe compiler flag)
//     fails loudly;
//   * results are invariant across campaign thread counts;
//   * the precomputed path/profile state matches the recomputing entry
//     points field for field, and the hoisted per-burst math matches the
//     formulas it replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "atlas/campaign.hpp"
#include "atlas/path_cache.hpp"
#include "atlas/placement.hpp"
#include "check/world.hpp"
#include "config/scenario.hpp"
#include "net/latency_model.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "topology/registry.hpp"

namespace shears {
namespace {

using check::dataset_checksum;

// Golden checksums captured from the recomputing engine BEFORE the cache
// layer landed (commit f38bf78 lineage). They are the ground truth the
// optimised engine must keep reproducing bit for bit.
constexpr std::uint64_t kGoldenSmallDefault = 0xc651f46c9bbf3d01ULL;
constexpr std::uint64_t kGoldenChurnMulti = 0x679b79bcd1dfd8caULL;
constexpr std::uint64_t kGoldenPaper9Months = 0x46d3f0dd8d6cfb2bULL;
constexpr std::uint64_t kGoldenFaulted9Months = 0x50b5875f3010277eULL;
constexpr std::uint64_t kGoldenStressNoisy = 0x4e326ef751afea68ULL;

/// Golden checksums of the small fleet at every interval that divides a
/// day, two targets per tick, at full uptime (the fault-free fast loop)
/// and at 90% uptime (the generic loop). Each pins a different diurnal
/// phase table. Captured from the cached engine after asserting it equal
/// to the uncached recomputing engine at every entry, before that engine
/// was removed.
struct IntervalGolden {
  int interval_hours;
  std::size_t records;        ///< at full uptime
  std::uint64_t full_uptime;
  std::uint64_t churn;        ///< probe_uptime = 0.9
};
constexpr IntervalGolden kIntervalGoldens[] = {
    {1, 36864, 0x55036acef4f22247ULL, 0xddd1a2a2d741b1a1ULL},
    {2, 18432, 0xe9154086925c49c6ULL, 0x71fc86b798f01884ULL},
    {4, 9216, 0x8673a20ce994ef60ULL, 0xa01691b1d84be23eULL},
    {6, 6144, 0x037f9f09f812c58bULL, 0xe71f3e8a5d8bcf6bULL},
    {8, 4608, 0x8dfe2b0991583d80ULL, 0x7609c1309933844eULL},
    {12, 3072, 0x9dcc0ca3b06fec85ULL, 0x429b1b374d4be0afULL},
    {24, 1536, 0x8abe3d3bf6ede2c6ULL, 0xc3292d86fa242e7eULL},
};

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

TEST(SamplingCacheGolden, SmallDefaultMatchesPreCacheEngine) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  const auto ds = atlas::Campaign(fleet, registry, model, small_config()).run();
  EXPECT_EQ(dataset_checksum(ds), kGoldenSmallDefault);
  EXPECT_EQ(ds.size(), 6144u);
}

TEST(SamplingCacheGolden, ChurnMultiTargetMatchesPreCacheEngine) {
  // Probe churn + multiple targets per tick exercises the generic
  // (non-fast-path) cached loop.
  atlas::PlacementConfig pc;
  pc.probe_count = 300;
  pc.seed = 11;
  const auto fleet = atlas::ProbeFleet::generate(pc);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig cc;
  cc.duration_days = 5;
  cc.targets_per_tick = 2;
  cc.probe_uptime = 0.9;
  cc.seed = 99;
  cc.threads = 2;

  const auto ds = atlas::Campaign(fleet, registry, model, cc).run();
  EXPECT_EQ(dataset_checksum(ds), kGoldenChurnMulti);
}

TEST(SamplingCacheGolden, EveryDailyIntervalMatchesRecomputingEngine) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const IntervalGolden& golden : kIntervalGoldens) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      atlas::CampaignConfig cc = small_config();
      cc.interval_hours = golden.interval_hours;
      cc.targets_per_tick = 2;
      cc.threads = threads;
      const auto full = atlas::Campaign(fleet, registry, model, cc).run();
      EXPECT_EQ(full.size(), golden.records)
          << golden.interval_hours << " h, " << threads << " threads";
      EXPECT_EQ(dataset_checksum(full), golden.full_uptime)
          << golden.interval_hours << " h, " << threads << " threads";
      cc.probe_uptime = 0.9;
      const auto churn = atlas::Campaign(fleet, registry, model, cc).run();
      EXPECT_EQ(dataset_checksum(churn), golden.churn)
          << golden.interval_hours << " h, " << threads
          << " threads, 90% uptime";
    }
  }
}

std::uint64_t scenario_checksum(const char* file) {
  std::ifstream in(std::string(SHEARS_SOURCE_DIR) + "/scenarios/" + file);
  EXPECT_TRUE(in.good()) << file;
  config::Scenario sc = config::parse_scenario(in);
  sc.campaign.duration_days = 2;  // checksum window, not the full 9 months
  sc.campaign.threads = 1;
  atlas::PlacementConfig pc = sc.fleet;
  pc.probe_count = 256;
  const auto fleet = atlas::ProbeFleet::generate(pc);
  const auto registry = sc.make_registry();
  const net::LatencyModel model(sc.model);
  const auto schedule = sc.make_fault_schedule();
  const auto ds =
      atlas::Campaign(fleet, registry, model, sc.campaign, &schedule).run();
  return dataset_checksum(ds);
}

TEST(SamplingCacheGolden, ShippedScenariosMatchPreCacheEngine) {
  EXPECT_EQ(scenario_checksum("paper_9_months.ini"), kGoldenPaper9Months);
  EXPECT_EQ(scenario_checksum("faulted_9_months.ini"), kGoldenFaulted9Months);
  EXPECT_EQ(scenario_checksum("stress_noisy_network.ini"), kGoldenStressNoisy);
}

TEST(SamplingCacheThreads, DatasetInvariantAcrossThreadCounts) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const unsigned threads : {1u, 2u, 8u}) {
    atlas::CampaignConfig cc = small_config();
    cc.threads = threads;
    const auto ds = atlas::Campaign(fleet, registry, model, cc).run();
    EXPECT_EQ(dataset_checksum(ds), kGoldenSmallDefault)
        << threads << " threads";
  }
}

TEST(PathCacheTest, EntriesMatchRecomputingModel) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const atlas::PathCache cache(fleet, registry, model, 2);

  ASSERT_EQ(cache.probe_count(), fleet.size());
  ASSERT_EQ(cache.region_count(), registry.regions().size());
  EXPECT_FALSE(cache.empty());
  EXPECT_GT(cache.memory_bytes(), 0u);

  for (const atlas::ProbeId probe : {atlas::ProbeId{0}, atlas::ProbeId{17},
                                     atlas::ProbeId{255}}) {
    const net::Endpoint& src = fleet.probe(probe).endpoint;
    const net::CachedProfile expected_profile = model.cache_profile(src);
    const net::CachedProfile& profile = cache.profile(probe);
    EXPECT_EQ(profile.combined_loss, expected_profile.combined_loss);
    EXPECT_EQ(profile.log_spread, expected_profile.log_spread);
    EXPECT_EQ(profile.profile.median_ms, expected_profile.profile.median_ms);

    const net::CachedPath* row = cache.paths(probe);
    for (std::uint16_t r = 0; r < cache.region_count(); ++r) {
      const topology::CloudRegion& dst = *registry.regions()[r];
      const net::CachedPath expected = model.cache_path(src, dst);
      // The flat row-major matrix and the (probe, region) accessor must
      // agree with a fresh recompute.
      EXPECT_EQ(row[r].base_rtt_ms, expected.base_rtt_ms);
      EXPECT_EQ(cache.path(probe, r).base_rtt_ms, expected.base_rtt_ms);
      EXPECT_EQ(row[r].excess_median_ms, expected.excess_median_ms);
      // And with the original entry point the cache hoists.
      EXPECT_EQ(row[r].base_rtt_ms, model.path_to(src, dst).base_rtt_ms());
    }
  }
}

TEST(CachedSampling, PingCachedMatchesPingPerturbedStream) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const net::Endpoint& src = fleet.probe(42).endpoint;
  const topology::CloudRegion& dst = *registry.regions()[3];
  const net::CachedPath path = model.cache_path(src, dst);
  const net::CachedProfile profile = model.cache_profile(src);

  stats::Xoshiro256 a(1234);
  stats::Xoshiro256 b(1234);
  for (int burst = 0; burst < 2000; ++burst) {
    const double load = 0.5 + 0.001 * burst;
    net::Perturbation pert;
    if (burst % 3 == 1) pert = {1.4, 2.0, 0.05};   // faulted burst
    if (burst % 3 == 2) pert = {1.0, -5.0, 0.0};   // negative clock skew
    const net::PingResult expected =
        model.ping_perturbed(src, dst, 3, load, pert, a);
    const net::PingResult got =
        model.ping_cached(path, profile, 3, load, pert, b);
    ASSERT_EQ(got.sent, expected.sent) << "burst " << burst;
    ASSERT_EQ(got.received, expected.received) << "burst " << burst;
    ASSERT_EQ(got.min_ms, expected.min_ms) << "burst " << burst;
    ASSERT_EQ(got.avg_ms, expected.avg_ms) << "burst " << burst;
    ASSERT_EQ(got.max_ms, expected.max_ms) << "burst " << burst;
  }
  // Identical draw counts: the streams stay aligned to the last bit.
  EXPECT_EQ(a.next(), b.next());
}

TEST(CachedSampling, NeutralOverloadMatchesNeutralPerturbation) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const net::Endpoint& src = fleet.probe(7).endpoint;
  const topology::CloudRegion& dst = *registry.regions()[10];
  const net::CachedPath path = model.cache_path(src, dst);
  const net::CachedProfile profile = model.cache_profile(src);

  stats::Xoshiro256 a(77);
  stats::Xoshiro256 b(77);
  for (int burst = 0; burst < 2000; ++burst) {
    const double load = 0.8 + 0.0005 * burst;
    const net::PingResult expected =
        model.ping_cached(path, profile, 3, load, {}, a);
    const net::PingResult got = model.ping_cached(path, profile, 3, load, b);
    ASSERT_EQ(got.received, expected.received) << "burst " << burst;
    ASSERT_EQ(got.min_ms, expected.min_ms) << "burst " << burst;
    ASSERT_EQ(got.avg_ms, expected.avg_ms) << "burst " << burst;
    ASSERT_EQ(got.max_ms, expected.max_ms) << "burst " << burst;
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(HoistedBurstMath, CachedProfileCombinesLossesAsIndependentEvents) {
  const auto fleet = small_fleet();
  const net::LatencyModel model;
  const net::Endpoint& src = fleet.probe(3).endpoint;
  const net::AccessProfile access = model.access_profile_of(src);
  const net::CachedProfile cached = model.cache_profile(src);
  const double p = access.loss_rate;
  const double c = model.config().core_loss_rate;
  EXPECT_EQ(cached.combined_loss, p + c - p * c);
  EXPECT_EQ(cached.log_spread, stats::lognormal_sigma_of_spread(access.spread));
  EXPECT_EQ(cached.profile.median_ms, access.median_ms);
}

TEST(HoistedBurstMath, CachedPathPrecomputesExcessMedian) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const net::Endpoint& src = fleet.probe(9).endpoint;
  const topology::CloudRegion& dst = *registry.regions()[0];
  const net::CachedPath cached = model.cache_path(src, dst);
  const double base = model.path_to(src, dst).base_rtt_ms();
  EXPECT_EQ(cached.base_rtt_ms, base);
  EXPECT_EQ(cached.excess_median_ms, base * model.config().excess_fraction);
}

TEST(HoistedBurstMath, BurstStateAppliesLoadAndPerturbation) {
  net::CachedPath path;
  path.base_rtt_ms = 40.0;
  path.excess_median_ms = 7.2;
  net::CachedProfile profile;
  profile.profile.median_ms = 12.0;
  profile.profile.bloat_probability = 0.3;
  profile.profile.bloat_scale_ms = 80.0;
  profile.combined_loss = 0.02;
  profile.log_spread = 0.55;

  const net::Perturbation pert{1.5, 3.0, 0.1};
  const auto s =
      net::detail::make_burst_state(path, profile, 2.0, pert, 0.74);
  EXPECT_EQ(s.median_ms, 24.0);            // median scales with load
  EXPECT_EQ(s.bloat_probability, 0.6);     // bloat scales with load...
  EXPECT_EQ(s.loss, 0.02 + 0.1 - 0.02 * 0.1);
  EXPECT_EQ(s.latency_scale, 1.5);
  EXPECT_EQ(s.offset_ms, 3.0);
  EXPECT_EQ(s.excess_sigma, 0.74);

  // ...and clamps at 1 under extreme load.
  const auto clamped =
      net::detail::make_burst_state(path, profile, 10.0, pert, 0.74);
  EXPECT_EQ(clamped.bloat_probability, 1.0);

  // The neutral builder is the same math with the identity perturbation.
  const auto neutral =
      net::detail::make_burst_state_neutral(path, profile, 2.0, 0.74);
  EXPECT_EQ(neutral.loss, profile.combined_loss);
  EXPECT_EQ(neutral.median_ms, s.median_ms);
  EXPECT_EQ(neutral.latency_scale, 1.0);
  EXPECT_EQ(neutral.offset_ms, 0.0);
}

}  // namespace
}  // namespace shears
