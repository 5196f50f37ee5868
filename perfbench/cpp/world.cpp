#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

std::size_t bench_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Seeds derive_seeds(std::uint64_t seed) {
  Seeds s;
  s.fleet = atlas::PlacementConfig{}.seed;
  s.campaign = splitmix64(seed ^ 0xCA4Full);
  s.traffic = splitmix64(seed ^ 0x7AFF1Cull);
  return s;
}

atlas::ProbeFleet make_fleet(std::uint64_t fleet_seed, std::size_t probes) {
  atlas::PlacementConfig config;
  config.probe_count = probes;
  config.seed = fleet_seed;
  return atlas::ProbeFleet::generate(config);
}

World::World(std::uint64_t fleet_seed, std::size_t probes)
    : cloud(topology::CloudRegistry::campaign_footprint()),
      fleet(make_fleet(fleet_seed, probes)) {}

std::unique_ptr<World> make_world(std::uint64_t fleet_seed,
                                  std::size_t probes) {
  return std::make_unique<World>(fleet_seed, probes);
}

atlas::CampaignConfig campaign_config(std::uint64_t seed, int days) {
  atlas::CampaignConfig config;
  config.duration_days = days;
  config.seed = seed;
  config.threads = static_cast<unsigned>(bench_threads());
  return config;
}

atlas::MeasurementDataset run_campaign(Trace& trace,
                                       atlas::Campaign& campaign) {
  obs::MetricsRegistry registry;
  if (trace.on()) campaign.attach_metrics(&registry);
  const Clock::time_point start = Clock::now();
  atlas::MeasurementDataset dataset =
      trace.call("atlas.campaign_s", [&] { return campaign.run(); });
  campaign.attach_metrics(nullptr);
  if (trace.on()) {
    const double campaign_s = seconds_since(start);
    const double shard_max_s =
        registry.histogram("campaign.shard_wall_ms").summary().max_ms / 1e3;
    const double bursts = static_cast<double>(dataset.size());
    trace.sample("atlas.bursts", bursts);
    trace.sample("atlas.bursts_per_s", bursts / campaign_s);
    trace.sample("atlas.shard_max_s", shard_max_s);
    trace.sample("atlas.merge_s", campaign_s - shard_max_s);
  }
  return dataset;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
