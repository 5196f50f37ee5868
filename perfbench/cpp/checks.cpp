#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "geo/country.hpp"
#include "serve/reference.hpp"

namespace perfbench {

namespace {

template <typename... Parts>
std::string why(const Parts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

std::size_t country_slot(const geo::Country* country) {
  return static_cast<std::size_t>(country - geo::all_countries().data());
}

// Great-circle distance with the mean Earth radius; written here rather
// than taken from the program so the floor is an independent bound.
double great_circle_km(const geo::GeoPoint& a, const geo::GeoPoint& b) {
  constexpr double kRad = 3.14159265358979323846 / 180.0;
  constexpr double kEarthKm = 6371.0;
  const double dlat = (b.lat_deg - a.lat_deg) * kRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kRad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(a.lat_deg * kRad) * std::cos(b.lat_deg * kRad) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthKm * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace

std::string check_record_count(std::size_t records, std::size_t probes,
                               std::size_t ticks) {
  if (records == probes * ticks) return {};
  return why("record count ", records, " != probes ", probes, " x ticks ",
             ticks);
}

std::string check_country_min(const atlas::MeasurementDataset& dataset,
                              std::span<const core::CountryMinLatency> rows) {
  const std::size_t countries = geo::all_countries().size();
  std::vector<double> best(countries,
                           std::numeric_limits<double>::infinity());
  std::vector<std::uint16_t> region(countries, 0);
  for (const atlas::Measurement& m : dataset.records()) {
    const atlas::Probe& probe = dataset.fleet().probe(m.probe_id);
    if (probe.privileged() || m.received == 0) continue;
    const std::size_t c = country_slot(probe.country);
    if (m.min_ms < best[c]) {
      best[c] = m.min_ms;
      region[c] = m.region_index;
    }
  }
  std::size_t with_data = 0;
  for (double b : best) with_data += std::isfinite(b) ? 1 : 0;
  if (rows.size() != with_data) {
    return why("country_min_latency has ", rows.size(),
               " countries, the recount ", with_data);
  }
  for (const core::CountryMinLatency& row : rows) {
    const std::size_t c = country_slot(row.country);
    if (c >= countries || row.min_rtt_ms != best[c]) {
      return why("country ", row.country->iso2, " min ", row.min_rtt_ms,
                 " ms, recount ", c < countries ? best[c] : -1.0, " ms");
    }
    if (row.best_region != dataset.registry().regions()[region[c]]) {
      return why("country ", row.country->iso2,
                 " best region differs from the recount");
    }
  }
  return {};
}

std::string check_bands(const core::LatencyBands& bands,
                        std::size_t countries) {
  if (bands.total() == countries) return {};
  return why("latency bands hold ", bands.total(), " countries, not ",
             countries);
}

std::string check_population(const core::PopulationCoverage& c) {
  if (c.under_mtp >= 0.0 && c.under_mtp <= c.under_pl &&
      c.under_pl <= c.under_hrt && c.under_hrt <= 1.0) {
    return {};
  }
  return why("population coverage not nested: MTP ", c.under_mtp, " PL ",
             c.under_pl, " HRT ", c.under_hrt);
}

std::string check_rtt_floor(const atlas::MeasurementDataset& dataset) {
  // Light in silica fibre (refractive index ~1.468) covers a kilometre in
  // 4.8968 us; a round trip covers the distance twice.
  constexpr double kFibreMsPerKm = 1.468 / 299792.458 * 1000.0;
  const auto& regions = dataset.registry().regions();
  const auto probes = dataset.fleet().probes();
  std::vector<float> floor_ms(probes.size() * regions.size());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    for (std::size_t r = 0; r < regions.size(); ++r) {
      floor_ms[p * regions.size() + r] = static_cast<float>(
          2.0 * kFibreMsPerKm *
          great_circle_km(probes[p].endpoint.location, regions[r]->location));
    }
  }
  for (const atlas::Measurement& m : dataset.records()) {
    if (m.received == 0) continue;
    const float floor = floor_ms[m.probe_id * regions.size() + m.region_index];
    if (!(m.min_ms >= floor)) {
      return why("probe ", m.probe_id, " -> region ", m.region_index,
                 " tick ", m.tick, ": min RTT ", m.min_ms,
                 " ms below the fibre floor ", floor, " ms");
    }
  }
  return {};
}

std::string check_response(front::FrameType type,
                           std::span<const std::uint8_t> payload,
                           std::uint64_t request_id,
                           const front::Response& expected) {
  if (type != front::FrameType::kResponse) {
    front::Error error;
    if (type == front::FrameType::kError && front::decode_error(payload, error)) {
      return why("request ", request_id, " refused: ",
                 front::to_string(error.code), " ", error.message);
    }
    return why("request ", request_id, ": frame of type ",
               front::to_string(type));
  }
  front::Response got;
  if (!front::decode_response(payload, got)) {
    return why("request ", request_id, ": response does not decode");
  }
  if (got.request_id != request_id) {
    return why("response carries id ", got.request_id, ", expected ",
               request_id);
  }
  front::Response want = expected;
  want.request_id = request_id;
  if (got != want) {
    return why("request ", request_id, ": served answer differs from the "
               "in-process answer (best ", got.best_ms, " vs ", want.best_ms,
               " ms)");
  }
  return {};
}

std::string check_reference(const serve::Answer& oracle,
                            const serve::Answer& reference) {
  std::string reason;
  if (serve::answers_identical(std::span(&oracle, 1),
                               std::span(&reference, 1), reason)) {
    return {};
  }
  return "oracle differs from the full-scan reference: " + reason;
}

std::string check_no_shed(const front::FrontStats& s, std::uint64_t sent) {
  const std::uint64_t shed = s.shed_queue_full + s.shed_deadline +
                             s.shed_throttled + s.expired_in_queue +
                             s.expired_served;
  if (shed != 0 || s.decode_errors != 0 || s.bad_requests != 0) {
    return why("front end shed or refused ", shed, " requests (",
               s.decode_errors, " decode errors, ", s.bad_requests,
               " bad requests)");
  }
  if (s.answered != sent) {
    return why("front end answered ", s.answered, " of ", sent, " requests");
  }
  return {};
}

std::string check_plan_steps(const opt::FootprintPlan& plan) {
  constexpr double kEps = 1e-12;
  if (!(plan.base_objective >= 0.0 &&
        plan.objective >= plan.base_objective - kEps &&
        plan.objective <= 1.0 + kEps)) {
    return why("plan objective ", plan.objective, " outside [base ",
               plan.base_objective, ", 1]");
  }
  double previous = plan.base_objective;
  for (const opt::PlanStep& step : plan.steps) {
    if (step.objective < previous - kEps || step.objective > 1.0 + kEps) {
      return why("plan objective falls or exceeds 1 at candidate ",
                 step.candidate, ": ", previous, " -> ", step.objective);
    }
    previous = step.objective;
  }
  return {};
}

std::string check_plan_objective(const opt::FootprintPlan& plan,
                                 const serve::ColumnarStore& rebuilt,
                                 double threshold_ms) {
  const std::span<const geo::Country> all = geo::all_countries();
  std::vector<std::uint64_t> rows(all.size(), 0);
  std::vector<std::uint64_t> covered(all.size(), 0);
  for (const serve::ColumnarStore::ShardView& shard : rebuilt.shards()) {
    const std::size_t c = country_slot(shard.country);
    rows[c] += shard.rtt_ms.size();
    for (float rtt : shard.rtt_ms) {
      covered[c] += static_cast<double>(rtt) <= threshold_ms ? 1 : 0;
    }
  }
  double world = 0.0;
  for (const geo::Country& country : all) world += country.population_m;

  double weight = 0.0;
  double weighted = 0.0;
  std::size_t listed = 0;
  for (std::size_t c = 0; c < all.size(); ++c) {
    if (rows[c] == 0) continue;
    if (listed >= plan.coverage.countries.size()) {
      return why("plan coverage misses country ", all[c].iso2);
    }
    const opt::CountryCoverage& got = plan.coverage.countries[listed++];
    if (got.country != &all[c] || got.rows != rows[c] ||
        got.covered != covered[c]) {
      return why("plan coverage of ", all[c].iso2, ": ", got.covered, "/",
                 got.rows, " rows, recount ", covered[c], "/", rows[c]);
    }
    const double w = all[c].population_m / world;
    weight += w;
    weighted += w * static_cast<double>(covered[c]) /
                static_cast<double>(rows[c]);
  }
  if (listed != plan.coverage.countries.size()) {
    return why("plan coverage lists ", plan.coverage.countries.size(),
               " countries, the recount ", listed);
  }
  const double objective = weight > 0.0 ? weighted / weight : 0.0;
  if (std::abs(objective - plan.objective) > 1e-9 * std::max(1.0, objective)) {
    return why("plan objective ", plan.objective, ", recount ", objective);
  }
  return {};
}

std::string check_coverage_monotone(std::span<const double> fractions) {
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    if (fractions[i] < fractions[i - 1]) {
      return why("coverage falls from ", fractions[i - 1], " to ",
                 fractions[i], " at sweep point ", i);
    }
  }
  return {};
}

std::string check_identity(std::size_t affected_cells,
                           std::span<const serve::Answer> overlay,
                           std::span<const serve::Answer> base) {
  if (affected_cells != 0) {
    return why("identity delta affects ", affected_cells, " cells");
  }
  return check_answers(overlay, base);
}

std::string check_rows(std::size_t stored, std::size_t expected) {
  if (stored == expected) return {};
  return why("store holds ", stored, " rows, expected ", expected);
}

std::string check_best_rtt(std::span<const serve::Answer> got,
                           std::span<const double> expected_ms) {
  if (got.size() != expected_ms.size()) {
    return why(got.size(), " best-RTT answers for ", expected_ms.size(),
               " countries");
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].ok || got[i].best_ms != expected_ms[i]) {
      return why("best RTT of country #", i, ": ", got[i].best_ms,
                 " ms, recomputed ", expected_ms[i], " ms");
    }
  }
  return {};
}

std::string check_image_files(const std::string& live,
                              const std::string& recovered) {
  std::ifstream a(live, std::ios::binary);
  std::ifstream b(recovered, std::ios::binary);
  if (!a || !b) return why("cannot read the images ", live, ", ", recovered);
  constexpr std::size_t kChunk = 1 << 20;
  std::vector<char> x(kChunk);
  std::vector<char> y(kChunk);
  std::uint64_t offset = 0;
  while (true) {
    a.read(x.data(), kChunk);
    b.read(y.data(), kChunk);
    const std::size_t n = static_cast<std::size_t>(a.gcount());
    const std::size_t m = static_cast<std::size_t>(b.gcount());
    for (std::size_t i = 0; i < std::min(n, m); ++i) {
      if (x[i] != y[i]) {
        return why("recovered image differs from the live image at byte ",
                   offset + i);
      }
    }
    if (n != m) {
      return why("recovered image ends at byte ", offset + m,
                 ", the live image at ", offset + n);
    }
    if (n < kChunk) return {};
    offset += n;
  }
}

std::string check_answers(std::span<const serve::Answer> got,
                          std::span<const serve::Answer> want) {
  std::string reason;
  if (serve::answers_identical(got, want, reason)) return {};
  return "answers differ: " + reason;
}

std::size_t eligible_rows(const atlas::ProbeFleet& fleet,
                          std::span<const atlas::Measurement> rows) {
  std::size_t n = 0;
  for (const atlas::Measurement& m : rows) {
    n += (m.received != 0 && !fleet.probe(m.probe_id).privileged()) ? 1 : 0;
  }
  return n;
}

}  // namespace perfbench
