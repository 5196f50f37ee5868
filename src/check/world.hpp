// Random-but-reproducible worlds: everything a campaign needs, generated
// from a Gen. A World bundles fleet, footprint, latency model, campaign
// config and fault schedule with the lifetimes the engine expects (the
// dataset borrows fleet/registry, so the World must outlive it).
//
// Generators are pure functions of the Gen stream: the same (seed, size)
// always yields the same world, which is what makes counterexamples
// replayable from the SHEARS_CHECK_SEED banner.
#pragma once

#include <cstdint>
#include <string>

#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "check/gen.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/coordinates.hpp"
#include "net/latency_model.hpp"
#include "serve/oracle.hpp"
#include "topology/registry.hpp"

namespace shears::check {

struct World {
  std::string summary;  ///< one-line description for failure messages
  topology::CloudRegistry registry;
  atlas::ProbeFleet fleet;
  net::LatencyModelConfig model_config;
  net::LatencyModel model;
  atlas::CampaignConfig campaign;
  faults::FaultScheduleConfig fault_config;
  faults::FaultSchedule schedule;  ///< empty when no fault rate is set

  [[nodiscard]] bool faulted() const noexcept { return !schedule.empty(); }

  /// Runs the world's campaign (fault schedule attached when non-empty).
  [[nodiscard]] atlas::MeasurementDataset run() const;
  [[nodiscard]] atlas::MeasurementDataset run(
      atlas::CampaignTelemetry& telemetry) const;

  /// Runs a variant campaign config against the same fleet / registry /
  /// model / schedule — the differential oracles' workhorse.
  [[nodiscard]] atlas::MeasurementDataset run_with(
      atlas::CampaignConfig config) const;
};

/// Generates a full world. Sizes scale with gen.size(): a fully shrunk
/// world is a single probe running a one-day campaign with everything
/// optional switched off.
[[nodiscard]] World make_world(Gen& gen);

[[nodiscard]] topology::CloudRegistry make_registry(Gen& gen);
[[nodiscard]] atlas::ProbeFleet make_fleet(Gen& gen);
[[nodiscard]] atlas::CampaignConfig make_campaign_config(Gen& gen);
[[nodiscard]] net::LatencyModelConfig make_model_config(Gen& gen);
[[nodiscard]] faults::FaultScheduleConfig make_fault_config(Gen& gen);

/// Random valid WGS-84 points with deliberate clustering on the spatial
/// index's historical failure modes: ~40% hug the antimeridian (|lon|
/// within a few degrees of 180) and ~15% the poles (|lat| >= 80); the
/// rest are uniform over the globe. Exact duplicates are sprinkled in to
/// exercise the (distance, id) tie-break.
[[nodiscard]] std::vector<geo::GeoPoint> make_geo_points(Gen& gen,
                                                         std::size_t count);

/// A mixed batch of oracle queries over the world: all three kinds,
/// locations from make_geo_points plus points scattered near real
/// probes, ISO-2 overrides (mostly countries the fleet inhabits, with
/// the odd dataless one), per-access filters, catalog app slugs (plus an
/// occasional unknown slug), and assorted top-k budgets.
[[nodiscard]] std::vector<serve::Query> make_queries(Gen& gen,
                                                     const World& world,
                                                     std::size_t count);

/// Order-sensitive FNV-1a checksum over every record field (floats by bit
/// pattern, one step per field) — the byte-identity yardstick of the
/// differential oracles and of the golden checksums that pin the
/// campaign engine (test_sampling_cache, test_obs).
[[nodiscard]] std::uint64_t dataset_checksum(
    const atlas::MeasurementDataset& dataset) noexcept;

/// True when the two datasets are record-for-record identical; on
/// mismatch, fills `why` with the first diverging index and field.
[[nodiscard]] bool datasets_identical(const atlas::MeasurementDataset& a,
                                      const atlas::MeasurementDataset& b,
                                      std::string& why);

}  // namespace shears::check
