// reproduce_270d — the paper's pipeline from an empty fleet to the last
// Fig. 4–8 statistic: ProbeFleet::generate, the 270-day Campaign::run
// with CampaignConfig defaults (except duration, seed and threads), then
// the analyses examples/full_reproduction.cpp runs. The sampling engine
// (atlas over net) does most of the work and core the rest; serve, front,
// opt and io are never called. Its set-up is only the fixed part of the
// world, the region registry and the latency model; the fleet is
// generated inside every timed reproduction.
#include <sstream>

#include "apps/application.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/access_comparison.hpp"
#include "core/feasibility.hpp"
#include "stats/ecdf.hpp"

namespace perfbench {

namespace {

constexpr int kDays = 270;

// What a reproduction starts from: every input except the fleet.
struct Fixed {
  topology::CloudRegistry cloud = topology::CloudRegistry::campaign_footprint();
  net::LatencyModel model;
};

struct Reproduction {
  std::unique_ptr<atlas::ProbeFleet> fleet;
  std::unique_ptr<atlas::Campaign> campaign;
  std::unique_ptr<atlas::MeasurementDataset> dataset;
  std::vector<core::CountryMinLatency> rows;
  core::LatencyBands bands;
  core::PopulationCoverage coverage;
};

// One whole reproduction; every public call is one ledger entry.
Reproduction reproduce(Run& run, const Fixed& fixed) {
  Trace& t = run.trace;
  Reproduction r;
  r.fleet = std::make_unique<atlas::ProbeFleet>(make_fleet(run.seeds.fleet));
  r.campaign = t.call("atlas.campaign_ctor_s", [&] {
    return std::make_unique<atlas::Campaign>(
        *r.fleet, fixed.cloud, fixed.model,
        campaign_config(run.seeds.campaign, kDays));
  });
  r.dataset = std::make_unique<atlas::MeasurementDataset>(
      run_campaign(t, *r.campaign));

  core::AnalysisOptions options;
  options.threads = bench_threads();
  const atlas::MeasurementDataset& ds = *r.dataset;
  t.call("core.country_min_s", [&] {
    r.rows = core::country_min_latency(ds, options);
    r.bands = core::band_country_latencies(r.rows);
    r.coverage = core::population_coverage(r.rows);
  });
  const auto best = t.call("core.per_probe_best_s",
                           [&] { return core::per_probe_best(ds, options); });
  const auto samples = t.call("core.continent_cdf_s", [&] {
    const auto mins = core::min_rtt_by_continent(ds, options);
    auto s = core::best_region_samples_by_continent(ds, options);
    (void)mins;
    return s;
  });
  core::AccessComparisonOptions access;
  access.threads = bench_threads();
  const core::AccessComparison cmp = t.call(
      "core.access_s", [&] { return core::compare_access(ds, access); });
  const auto fz = t.call("core.feasibility_s", [&] {
    const double eu_median =
        stats::Ecdf(samples[geo::index_of(geo::Continent::kEurope)]).median();
    return core::classify_catalog(apps::application_catalog(), eu_median);
  });
  (void)best;
  (void)cmp;
  (void)fz;
  return r;
}

std::string check(const Reproduction& r) {
  const atlas::MeasurementDataset& ds = *r.dataset;
  std::string why = check_record_count(ds.size(), r.fleet->size(),
                                       r.campaign->tick_count());
  if (why.empty()) why = check_country_min(ds, r.rows);
  if (why.empty()) why = check_bands(r.bands, r.rows.size());
  if (why.empty()) why = check_population(r.coverage);
  if (why.empty()) why = check_rtt_floor(ds);
  return why;
}

}  // namespace

void run_reproduce(Run& run, Clock::time_point process_start) {
  std::vector<double> setups;
  Clock::time_point s0 = process_start;
  std::unique_ptr<Fixed> fixed;
  for (int i = 0; i < kSetups; ++i) {
    fixed = std::make_unique<Fixed>();
    setups.push_back(seconds_since(s0));
    s0 = Clock::now();
  }

  std::vector<double> times;
  std::uint64_t records = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    Reproduction r = reproduce(run, *fixed);
    times.push_back(seconds_since(t0));
    records += r.dataset->size();
    run.op(check(r));
  } while (seconds_since(start) < run.seconds);

  double total = 0.0;
  for (double t : times) total += t;
  std::ostringstream line;
  line.precision(5);
  line << "reproduce_s = " << median(times) << " s (median of "
       << times.size() << " reproductions of " << kDays << " days)";
  Run::say(line.str());
  report_common(run, setups);
  run.metric("op_ms", median(times) * 1e3, "ms");
  run.metric("throughput_per_s", static_cast<double>(records) / total, "1/s");
}

}  // namespace perfbench
