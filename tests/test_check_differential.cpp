// Differential oracles over generated worlds: cached sampling vs the
// per-packet reference, 1 vs 8 campaign threads, scalar vs batched
// engine (within its epsilon), serial vs sharded analyses, CSV/JSONL
// round trips, and the empty-schedule ≡ clean-engine identity. Each
// oracle must agree on every world the generator can produce.
#include <gtest/gtest.h>

#include "atlas/measurement.hpp"
#include "check/oracles.hpp"
#include "check/property.hpp"
#include "check/world.hpp"

namespace shears::check {
namespace {

TEST(Differential, CachedSamplingMatchesReference) {
  const CheckResult result = check(
      "cached_sampling",
      [](Gen& gen) {
        const World world = make_world(gen);
        check_cached_sampling(world);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, CampaignThreadInvariance) {
  const CheckResult result = check(
      "campaign_thread_invariance",
      [](Gen& gen) {
        const World world = make_world(gen);
        check_campaign_thread_invariance(world);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, BatchedVsScalarEngine) {
  const CheckResult result = check(
      "batched_vs_scalar",
      [](Gen& gen) {
        const World world = make_world(gen);
        check_batched_vs_scalar(world);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, AnalysisThreadInvariance) {
  const CheckResult result = check(
      "analysis_thread_invariance",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        check_analysis_thread_invariance(world, dataset);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, CsvRoundTrip) {
  const CheckResult result = check(
      "csv_roundtrip",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        check_csv_roundtrip(world, dataset);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, JsonlRoundTrip) {
  const CheckResult result = check(
      "jsonl_roundtrip",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        check_jsonl_roundtrip(world, dataset);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, EmptyScheduleMatchesCleanEngine) {
  const CheckResult result = check(
      "empty_schedule_identity",
      [](Gen& gen) {
        const World world = make_world(gen);
        check_empty_schedule_identity(world);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(Differential, ChecksumAgreesWithRecordEquality) {
  // The checksum is the oracles' fast path; it must never contradict the
  // field-by-field comparison.
  const CheckResult result = check(
      "checksum_consistency",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset a = world.run();
        const atlas::MeasurementDataset b = world.run();
        std::string why;
        require(datasets_identical(a, b, why),
                "re-running the same world diverged: " + why);
        require(dataset_checksum(a) == dataset_checksum(b),
                "identical datasets produced different checksums");
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

}  // namespace
}  // namespace shears::check
