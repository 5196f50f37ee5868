// The serving layer: spatial index exactness, columnar-store build /
// append identity, the campaign sink hook, oracle semantics, on every
// shipped scenario byte-identity of the indexed oracle against the
// brute-force full-scan reference, and incremental refresh against
// one-shot builds, lazy recovery and the full scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/tags.hpp"
#include "config/scenario.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/coordinates.hpp"
#include "geo/country.hpp"
#include "geo/spatial_index.hpp"
#include "net/latency_model.hpp"
#include "obs/metrics.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"
#include "topology/registry.hpp"

namespace shears::serve {
namespace {

// ---------------------------------------------------------------- spatial

TEST(SpatialIndex, EmptyIndexAnswersEmpty) {
  const geo::SpatialIndex index{};
  EXPECT_FALSE(index.nearest({0.0, 0.0}).has_value());
  EXPECT_TRUE(index.nearest_n({0.0, 0.0}, 3).empty());
  EXPECT_TRUE(index.within_radius({0.0, 0.0}, 1000.0).empty());
}

TEST(SpatialIndex, InvalidPointThrowsAtBuild) {
  const std::vector<geo::GeoPoint> points = {{91.0, 0.0}};
  EXPECT_THROW(geo::SpatialIndex{points}, std::invalid_argument);
}

TEST(SpatialIndex, AntimeridianIsNotASeam) {
  // 0.5° either side of the antimeridian is ~111 km of real distance;
  // an index over raw longitude would see ~39 900 km.
  const std::vector<geo::GeoPoint> points = {
      {0.0, 179.5}, {0.0, -179.5}, {0.0, 0.0}};
  const geo::SpatialIndex index(points);

  const auto east = index.nearest({0.0, 179.9});
  ASSERT_TRUE(east.has_value());
  EXPECT_EQ(east->id, 0u);
  EXPECT_LT(east->distance_km, 50.0);

  const auto west = index.nearest({0.0, -179.9});
  ASSERT_TRUE(west.has_value());
  EXPECT_EQ(west->id, 1u);
  EXPECT_LT(west->distance_km, 50.0);

  // Both seam points sit within 120 km of a query on the line itself
  // (their distances differ only in the last float bits, so assert the
  // set, not the order).
  auto both = index.within_radius({0.0, 180.0}, 120.0);
  ASSERT_EQ(both.size(), 2u);
  std::sort(both.begin(), both.end(),
            [](const geo::SpatialHit& a, const geo::SpatialHit& b) {
              return a.id < b.id;
            });
  EXPECT_EQ(both[0].id, 0u);
  EXPECT_EQ(both[1].id, 1u);
}

TEST(SpatialIndex, PolesCollapseLongitude) {
  // At 89.9°N every longitude is within ~11 km of the pole.
  const std::vector<geo::GeoPoint> points = {
      {89.9, 0.0}, {89.9, 180.0}, {-89.9, 90.0}, {10.0, 10.0}};
  const geo::SpatialIndex index(points);

  const auto north = index.within_radius({90.0, 45.0}, 50.0);
  ASSERT_EQ(north.size(), 2u);
  EXPECT_EQ(north[0].id, 0u);
  EXPECT_EQ(north[1].id, 1u);

  const auto south = index.nearest({-90.0, -123.0});
  ASSERT_TRUE(south.has_value());
  EXPECT_EQ(south->id, 2u);
  EXPECT_LT(south->distance_km, 50.0);
}

TEST(SpatialIndex, RadiusBoundaryIsInclusive) {
  const std::vector<geo::GeoPoint> points = {{0.0, 0.0}, {0.0, 1.0}};
  const geo::SpatialIndex index(points);
  const double edge = geo::haversine_km({0.0, 0.0}, {0.0, 1.0});
  const auto hits = index.within_radius({0.0, 0.0}, edge);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[1].distance_km, edge);
}

TEST(SpatialIndex, DuplicatePointsTieBreakTowardsSmallerId) {
  const std::vector<geo::GeoPoint> points = {
      {10.0, 20.0}, {10.0, 20.0}, {10.0, 20.0}, {50.0, 60.0}};
  const geo::SpatialIndex index(points);
  const auto hit = index.nearest({10.0, 20.0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 0u);
  EXPECT_EQ(hit->distance_km, 0.0);
  const auto top = index.nearest_n({10.0, 20.0}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_EQ(top[1].id, 1u);
  EXPECT_EQ(top[2].id, 2u);
}

// ---------------------------------------------------------------- store

atlas::Probe make_probe(atlas::ProbeId id, const char* iso2,
                        net::AccessTechnology access,
                        atlas::Environment environment) {
  atlas::Probe probe;
  probe.id = id;
  probe.country = geo::find_country(iso2);
  EXPECT_NE(probe.country, nullptr) << iso2;
  probe.endpoint.location = probe.country->site;
  probe.endpoint.tier = probe.country->tier;
  probe.endpoint.access = access;
  probe.environment = environment;
  probe.tags = atlas::make_tags(access, environment, true);
  return probe;
}

atlas::Measurement row(atlas::ProbeId probe, std::uint16_t region,
                       std::uint32_t tick, float min_ms,
                       std::uint8_t received = 3) {
  atlas::Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.min_ms = min_ms;
  m.avg_ms = min_ms + 1.0f;
  m.max_ms = min_ms + 2.0f;
  m.sent = 3;
  m.received = received;
  return m;
}

/// A tiny fixed world: DE ethernet, DE LTE, FR ethernet, plus one
/// privileged DE probe the store must ignore.
struct TinyWorld {
  topology::CloudRegistry registry;
  atlas::ProbeFleet fleet;

  TinyWorld()
      : registry({topology::all_regions().data(),
                  topology::all_regions().data() + 1,
                  topology::all_regions().data() + 2}),
        fleet(atlas::ProbeFleet::from_probes({
            make_probe(0, "DE", net::AccessTechnology::kEthernet,
                       atlas::Environment::kHome),
            make_probe(1, "DE", net::AccessTechnology::kLte,
                       atlas::Environment::kHome),
            make_probe(2, "FR", net::AccessTechnology::kEthernet,
                       atlas::Environment::kHome),
            make_probe(3, "DE", net::AccessTechnology::kEthernet,
                       atlas::Environment::kDatacenter),
        })) {}
};

TEST(ColumnarStore, HandBuiltRowsYieldExactSummaries) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = {
      row(0, 0, 0, 20.0f), row(0, 0, 1, 10.0f), row(0, 0, 2, 40.0f),
      row(0, 0, 3, 30.0f),                     // DE/eth region 0
      row(1, 0, 0, 50.0f), row(1, 0, 1, 5.0f),  // DE/lte region 0
      row(2, 1, 0, 70.0f),                     // FR/eth region 1
      row(3, 0, 0, 1.0f),                      // privileged: dropped
      row(0, 1, 0, 90.0f, 0),                  // lost: dropped
  };
  store.append(rows);
  store.refresh();

  EXPECT_EQ(store.rows_stored(), 7u);
  EXPECT_EQ(store.rows_dropped(), 2u);
  EXPECT_EQ(store.shard_count(), 3u);

  const std::size_t de = country_index_of(geo::find_country("DE"));
  const auto eth = store.shard_stats(de, net::AccessTechnology::kEthernet);
  ASSERT_EQ(eth.size(), world.registry.size());
  EXPECT_EQ(eth[0].count, 4u);
  EXPECT_EQ(eth[0].min_ms, 10.0);
  EXPECT_EQ(eth[0].median_ms, 25.0);  // interp between 20 and 30
  EXPECT_EQ(eth[0].p95_ms, 38.5);     // h = 2.85 over {10,20,30,40}
  EXPECT_TRUE(eth[1].empty());        // the lost row never landed

  const auto lte = store.shard_stats(de, net::AccessTechnology::kLte);
  EXPECT_EQ(lte[0].count, 2u);
  EXPECT_EQ(lte[0].min_ms, 5.0);
  EXPECT_EQ(lte[0].median_ms, 27.5);

  // Country rollup = exact merge of the two access shards.
  const auto rollup = store.country_stats(de);
  EXPECT_EQ(rollup[0].count, 6u);
  EXPECT_EQ(rollup[0].min_ms, 5.0);
  EXPECT_EQ(rollup[0].median_ms, 25.0);  // {5,10,20,30,40,50}, h = 2.5
  EXPECT_EQ(rollup[0].p95_ms, 47.5);     // h = 4.75

  // Raw columns keep ingestion order within the shard.
  const auto shards = store.shards();
  ASSERT_EQ(shards.size(), 3u);
  const auto de_eth = std::find_if(
      shards.begin(), shards.end(), [](const ColumnarStore::ShardView& v) {
        return v.country == geo::find_country("DE") &&
               v.access == net::AccessTechnology::kEthernet;
      });
  ASSERT_NE(de_eth, shards.end());
  ASSERT_EQ(de_eth->rtt_ms.size(), 4u);
  EXPECT_EQ(de_eth->rtt_ms[0], 20.0f);
  EXPECT_EQ(de_eth->rtt_ms[3], 30.0f);
}

TEST(ColumnarStore, StaleStoreRefusesReads) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f)});
  EXPECT_FALSE(store.fresh());
  EXPECT_THROW((void)store.shard_stats(0, net::AccessTechnology::kEthernet),
               std::logic_error);
  EXPECT_THROW((void)store.country_stats(0), std::logic_error);
  store.refresh();
  EXPECT_TRUE(store.fresh());
}

TEST(ColumnarStore, UnresolvableRowThrows) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_THROW(
      store.append(std::vector<atlas::Measurement>{row(99, 0, 0, 20.0f)}),
      std::invalid_argument);
  EXPECT_THROW(
      store.append(std::vector<atlas::Measurement>{row(0, 200, 0, 20.0f)}),
      std::invalid_argument);
}

/// Cells equal as a reader sees them: the four scalars and the full
/// sorted sample (which Oracle::weighted_coverage and rollups read).
void expect_same_cells(std::span<const RegionStats> a,
                       std::span<const RegionStats> b,
                       const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].count, b[r].count) << where << " region " << r;
    if (a[r].empty()) continue;
    ASSERT_EQ(a[r].min_ms, b[r].min_ms) << where << " region " << r;
    ASSERT_EQ(a[r].median_ms, b[r].median_ms) << where << " region " << r;
    ASSERT_EQ(a[r].p95_ms, b[r].p95_ms) << where << " region " << r;
    ASSERT_EQ(a[r].ecdf.sorted(), b[r].ecdf.sorted())
        << where << " region " << r;
  }
}

void expect_same_store(const ColumnarStore& a, const ColumnarStore& b) {
  ASSERT_EQ(a.rows_stored(), b.rows_stored());
  ASSERT_EQ(a.rows_dropped(), b.rows_dropped());
  const auto shards_a = a.shards();
  const auto shards_b = b.shards();
  ASSERT_EQ(shards_a.size(), shards_b.size());
  for (std::size_t s = 0; s < shards_a.size(); ++s) {
    EXPECT_EQ(shards_a[s].country, shards_b[s].country);
    EXPECT_EQ(shards_a[s].access, shards_b[s].access);
    ASSERT_EQ(shards_a[s].rtt_ms.size(), shards_b[s].rtt_ms.size());
    for (std::size_t i = 0; i < shards_a[s].rtt_ms.size(); ++i) {
      ASSERT_EQ(shards_a[s].probe_ids[i], shards_b[s].probe_ids[i]);
      ASSERT_EQ(shards_a[s].region_index[i], shards_b[s].region_index[i]);
      ASSERT_EQ(shards_a[s].ticks[i], shards_b[s].ticks[i]);
      ASSERT_EQ(shards_a[s].rtt_ms[i], shards_b[s].rtt_ms[i]);
    }
    const std::size_t country = country_index_of(shards_a[s].country);
    expect_same_cells(a.shard_stats(country, shards_a[s].access),
                      b.shard_stats(country, shards_b[s].access),
                      "shard " + std::to_string(s));
  }
  for (std::size_t c = 0; c < geo::country_count(); ++c) {
    expect_same_cells(a.country_stats(c), b.country_stats(c),
                      "country " + std::to_string(c));
  }
}

/// A small but real campaign dataset for the identity tests.
struct CampaignWorld {
  topology::CloudRegistry registry = topology::CloudRegistry::campaign_footprint();
  atlas::ProbeFleet fleet;
  net::LatencyModel model;
  atlas::CampaignConfig config;

  CampaignWorld() : fleet(atlas::ProbeFleet::generate(small_fleet())), model(net::LatencyModelConfig{}) {
    config.duration_days = 1;
    config.interval_hours = 6;
    config.seed = 20200913;
  }

  static atlas::PlacementConfig small_fleet() {
    atlas::PlacementConfig p;
    p.probe_count = geo::country_count() + 40;
    p.seed = 7;
    return p;
  }

  [[nodiscard]] atlas::MeasurementDataset run() const {
    return atlas::Campaign(fleet, registry, model, config).run();
  }
};

TEST(ColumnarStore, AppendChunkingAndThreadCountAreInvisible) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  ASSERT_GT(dataset.size(), 0u);

  const ColumnarStore one_shot = ColumnarStore::build(dataset, StoreConfig{1});

  // N then M (uneven chunks, refresh mid-stream), 8 worker threads.
  ColumnarStore chunked(&dataset.fleet(), &dataset.registry(), StoreConfig{8});
  const auto rows = dataset.records();
  const std::size_t cut = rows.size() / 3 + 1;
  chunked.append(rows.subspan(0, cut));
  chunked.refresh();
  chunked.append(rows.subspan(cut));
  chunked.refresh();

  expect_same_store(one_shot, chunked);
}

TEST(ColumnarStore, CampaignSinkMatchesOneShotBuild) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();

  ColumnarStore live(&world.fleet, &world.registry, StoreConfig{2});
  atlas::Campaign campaign(world.fleet, world.registry, world.model,
                           world.config);
  campaign.attach_sink(&live);
  const atlas::MeasurementDataset streamed = campaign.run();
  live.refresh();

  ASSERT_EQ(streamed.size(), dataset.size());
  const ColumnarStore built = ColumnarStore::build(dataset, StoreConfig{1});
  expect_same_store(built, live);
}

// ---------------------------------------------------------------- oracle

TEST(Oracle, CountryOverrideAndFailureModes) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{
      row(0, 0, 0, 20.0f), row(0, 1, 0, 55.0f), row(2, 1, 0, 70.0f)});
  store.refresh();
  const Oracle oracle(&store, OracleConfig{1, {}});

  Query q;
  q.kind = QueryKind::kBestRtt;
  q.country_iso2 = "DE";
  Answer a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("DE"));
  EXPECT_EQ(a.best_region, world.registry.regions()[0]);
  EXPECT_EQ(a.best_ms, 20.0);

  // A country with no data resolves but answers not-ok.
  q.country_iso2 = "JP";
  a = oracle.answer_one(q);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("JP"));
  EXPECT_EQ(a.best_region, nullptr);

  // An unknown ISO-2 code cannot resolve at all.
  q.country_iso2 = "ZZ";
  a = oracle.answer_one(q);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.country, nullptr);

  // Unknown application slug: resolved country, no verdict.
  Query feas;
  feas.kind = QueryKind::kFeasibility;
  feas.country_iso2 = "DE";
  feas.app_id = "no-such-app";
  a = oracle.answer_one(feas);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("DE"));
}

TEST(Oracle, LocationResolvesViaNearestEligibleProbe) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f),
                                               row(2, 1, 0, 70.0f)});
  store.refresh();
  const Oracle oracle(&store, OracleConfig{1, {}});

  Query q;
  q.kind = QueryKind::kBestRtt;
  q.where = geo::find_country("FR")->site;
  const Answer a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("FR"));
  EXPECT_EQ(a.best_ms, 70.0);

  // Restricting to LTE re-routes resolution to the nearest LTE probe,
  // which lives in Germany — and DE has no LTE data for region 1.
  Query lte = q;
  lte.any_access = false;
  lte.access = net::AccessTechnology::kLte;
  const Answer b = oracle.answer_one(lte);
  EXPECT_EQ(b.country, geo::find_country("DE"));
  EXPECT_FALSE(b.ok);  // DE/LTE shard is empty
}

TEST(Oracle, TopKRespectsBudgetAndK) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{
      row(0, 0, 0, 20.0f), row(0, 1, 0, 35.0f), row(0, 2, 0, 80.0f)});
  store.refresh();
  const Oracle oracle(&store, OracleConfig{1, {}});

  Query q;
  q.kind = QueryKind::kTopK;
  q.country_iso2 = "DE";
  q.budget_ms = 50.0;
  q.k = 5;
  Answer a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  ASSERT_EQ(a.regions.size(), 2u);  // 80 ms region is over budget
  EXPECT_EQ(a.regions[0].rtt_ms, 20.0);
  EXPECT_EQ(a.regions[1].rtt_ms, 35.0);

  q.k = 1;
  a = oracle.answer_one(q);
  ASSERT_EQ(a.regions.size(), 1u);
  EXPECT_EQ(a.regions[0].rtt_ms, 20.0);

  q.k = 0;
  a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(a.regions.empty());
}

TEST(Oracle, BatchApiGuardRails) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f)});
  // Unrefreshed store: the oracle must refuse rather than serve stale
  // summaries.
  const Oracle oracle(&store, OracleConfig{1, {}});
  const std::vector<Query> queries(2);
  std::vector<Answer> out(2);
  EXPECT_THROW(oracle.answer(queries, out), std::logic_error);
  store.refresh();
  std::vector<Answer> short_out(1);
  EXPECT_THROW(oracle.answer(queries, short_out), std::invalid_argument);
  EXPECT_NO_THROW(oracle.answer(queries, out));
}

TEST(Oracle, StaleBatchesRecoverViaTryAnswerAndAutoRefresh) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f)});

  const std::vector<Query> queries(1);
  std::vector<Answer> out(1);

  // A const-store oracle can only report the condition: try_answer
  // returns kStale and leaves the output span untouched.
  const ColumnarStore& frozen_store = store;
  const Oracle frozen(&frozen_store, OracleConfig{1, {}});
  out[0].best_ms = -1.0;
  EXPECT_EQ(frozen.try_answer(queries, out), BatchStatus::kStale);
  EXPECT_EQ(out[0].best_ms, -1.0);

  // auto_refresh over a const store is ignored, not silently enabled.
  const Oracle frozen_auto(&frozen_store, OracleConfig{1, {}, true});
  EXPECT_EQ(frozen_auto.try_answer(queries, out), BatchStatus::kStale);
  EXPECT_THROW(frozen_auto.answer(queries, out), std::logic_error);

  // A mutable-store oracle with auto_refresh absorbs live appends inside
  // the call — through both the throwing and non-throwing entry points.
  const Oracle live(&store, OracleConfig{1, {}, true});
  EXPECT_EQ(live.try_answer(queries, out), BatchStatus::kOk);
  EXPECT_TRUE(store.fresh());
  store.append(std::vector<atlas::Measurement>{row(1, 1, 1, 30.0f)});
  EXPECT_FALSE(store.fresh());
  EXPECT_NO_THROW(live.answer(queries, out));
  EXPECT_TRUE(store.fresh());

  // Without auto_refresh a mutable-store oracle still refuses; the store
  // owner decides when summaries move.
  store.append(std::vector<atlas::Measurement>{row(2, 1, 2, 40.0f)});
  const Oracle manual(&store, OracleConfig{1, {}});
  EXPECT_EQ(manual.try_answer(queries, out), BatchStatus::kStale);
  store.refresh();
  EXPECT_EQ(manual.try_answer(queries, out), BatchStatus::kOk);
}

TEST(Oracle, NearestRegionsMatchesRegistryScan) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  const ColumnarStore store = ColumnarStore::build(dataset, StoreConfig{1});
  const Oracle oracle(&store, OracleConfig{1, {}});

  const geo::GeoPoint query{48.1, 11.6};  // Munich
  const auto hits = oracle.nearest_regions(query, 3);
  const auto expected = world.registry.nearest_n(query, 3);
  ASSERT_EQ(hits.size(), expected.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(world.registry.regions()[hits[i].id], expected[i].region);
  }
}

// ------------------------------------------------- shipped scenarios

/// Deterministic mixed query batch over a fleet: every kind, location
/// and ISO-2 resolution, per-access filters, real and bogus app slugs.
std::vector<Query> scenario_queries(const atlas::ProbeFleet& fleet) {
  static const char* kApps[] = {"cloud-gaming", "no-such-app"};
  std::vector<Query> queries;
  const std::span<const atlas::Probe> probes = fleet.probes();
  for (std::size_t i = 0; i < probes.size(); i += 3) {
    const atlas::Probe& probe = probes[i];
    Query q;
    q.kind = static_cast<QueryKind>(i % 3);
    q.where = probe.endpoint.location;
    if (i % 2 == 0) q.country_iso2 = probe.country->iso2;
    q.any_access = (i % 5) != 0;
    q.access = probe.endpoint.access;
    if (q.kind == QueryKind::kFeasibility) q.app_id = kApps[(i / 3) % 2];
    if (q.kind == QueryKind::kTopK) {
      q.budget_ms = 20.0 + static_cast<double>(i % 7) * 30.0;
      q.k = static_cast<std::uint32_t>(i % 6);
    }
    queries.push_back(q);
  }
  return queries;
}

class ScenarioOracle : public testing::TestWithParam<const char*> {};

TEST_P(ScenarioOracle, IndexedAnswersMatchFullScan) {
  const std::string path =
      std::string(SHEARS_SOURCE_DIR) + "/scenarios/" + GetParam();
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  config::Scenario s = config::parse_scenario(in);
  s.fleet.probe_count = std::min<std::size_t>(s.fleet.probe_count, 256);
  s.campaign.duration_days = 1;

  const topology::CloudRegistry registry = s.make_registry();
  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate(s.fleet);
  const net::LatencyModel model(s.model);
  const faults::FaultSchedule schedule = s.make_fault_schedule();
  const atlas::Campaign campaign(fleet, registry, model, s.campaign,
                                 schedule.empty() ? nullptr : &schedule);
  const atlas::MeasurementDataset dataset = campaign.run();
  ASSERT_GT(dataset.size(), 0u);

  const std::vector<Query> queries = scenario_queries(fleet);
  const ReferenceOracle reference(&dataset);
  const std::vector<Answer> expected = reference.answer(queries);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const ColumnarStore store =
        ColumnarStore::build(dataset, StoreConfig{threads});
    const Oracle oracle(&store, OracleConfig{threads, {}});
    const std::vector<Answer> got = oracle.answer(queries);
    std::string why;
    EXPECT_TRUE(answers_identical(expected, got, why))
        << GetParam() << " (threads " << threads << "): " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(AllShippedScenarios, ScenarioOracle,
                         testing::Values("paper_9_months.ini",
                                         "five_g_delivers.ini",
                                         "cloud_2014.ini",
                                         "hyperscalers_only.ini",
                                         "stress_noisy_network.ini",
                                         "faulted_9_months.ini"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

// ------------------------------------------------- incremental refresh

/// The dataset's rows regrouped by tick, dataset order within a tick:
/// the chunks a store refreshed once per campaign tick sees.
std::vector<std::vector<atlas::Measurement>> rows_by_tick(
    const atlas::MeasurementDataset& dataset) {
  std::vector<std::vector<atlas::Measurement>> ticks;
  for (const atlas::Measurement& m : dataset.records()) {
    if (m.tick >= ticks.size()) ticks.resize(m.tick + 1);
    ticks[m.tick].push_back(m);
  }
  return ticks;
}

std::vector<atlas::Measurement> concat(
    std::span<const std::vector<atlas::Measurement>> chunks) {
  std::vector<atlas::Measurement> all;
  for (const auto& chunk : chunks) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

TEST(IncrementalRefresh, RefreshPerTickMatchesOneShotBuild) {
  const CampaignWorld world;
  const auto ticks = rows_by_tick(world.run());
  ASSERT_GT(ticks.size(), 2u);
  ColumnarStore one_shot(&world.fleet, &world.registry, StoreConfig{1});
  one_shot.append(concat(ticks));
  one_shot.refresh();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ColumnarStore live(&world.fleet, &world.registry, StoreConfig{threads});
    for (const auto& chunk : ticks) {
      live.append(chunk);
      live.refresh();
    }
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_same_store(one_shot, live);
  }
}

TEST(IncrementalRefresh, PartialChunkLeavesUntouchedCellsAsTheyWere) {
  const TinyWorld world;
  const std::vector<atlas::Measurement> first = {
      row(0, 0, 0, 20.0f), row(0, 1, 0, 35.0f), row(1, 0, 0, 50.0f),
      row(2, 1, 0, 70.0f), row(2, 2, 0, 15.0f)};
  // Touches only DE/LTE, only region 2.
  const std::vector<atlas::Measurement> second = {row(1, 2, 1, 44.0f),
                                                  row(1, 2, 2, 12.0f)};
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(first);
  store.refresh();
  const std::size_t de = country_index_of(geo::find_country("DE"));
  const std::size_t fr = country_index_of(geo::find_country("FR"));
  const std::vector<RegionStats> de_before(store.country_stats(de).begin(),
                                           store.country_stats(de).end());
  const std::vector<RegionStats> fr_before(store.country_stats(fr).begin(),
                                           store.country_stats(fr).end());
  const double* de_region0 = store.country_stats(de)[0].ecdf.sorted().data();
  const double* fr_region1 = store.country_stats(fr)[1].ecdf.sorted().data();

  store.append(second);
  store.refresh();
  const auto de_after = store.country_stats(de);
  expect_same_cells(fr_before, store.country_stats(fr), "FR rollup");
  expect_same_cells(std::span(de_before).first(2), de_after.first(2),
                    "DE rollup");
  // Untouched rollup cells are not even rebuilt: same buffers.
  EXPECT_EQ(de_after[0].ecdf.sorted().data(), de_region0);
  EXPECT_EQ(store.country_stats(fr)[1].ecdf.sorted().data(), fr_region1);
  EXPECT_EQ(de_after[2].ecdf.sorted(), (std::vector<double>{12.0, 44.0}));
  EXPECT_EQ(de_after[2].median_ms, 28.0);

  std::vector<atlas::Measurement> all = first;
  all.insert(all.end(), second.begin(), second.end());
  ColumnarStore one_shot(&world.fleet, &world.registry, StoreConfig{1});
  one_shot.append(all);
  one_shot.refresh();
  expect_same_store(one_shot, store);
}

TEST(IncrementalRefresh, LazyRecoveryMatchesTheIncrementalLiveStore) {
  const CampaignWorld world;
  const auto ticks = rows_by_tick(world.run());
  ASSERT_GT(ticks.size(), 2u);
  const std::size_t base_ticks = ticks.size() / 2;
  const std::string base_path =
      ::testing::TempDir() + "incremental_refresh_base.snap";
  const std::string log_path =
      ::testing::TempDir() + "incremental_refresh_delta.log";

  ColumnarStore live(&world.fleet, &world.registry, StoreConfig{1});
  live.append(concat(std::span(ticks).first(base_ticks)));
  live.refresh();
  save_snapshot(live, base_path);
  {
    DeltaLog log(&live, log_path);
    for (std::size_t t = base_ticks; t < ticks.size(); ++t) {
      log.publish(ticks[t]);
      live.refresh();
    }
  }

  SnapshotLoadOptions lazy;
  lazy.lazy_summaries = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ColumnarStore recovered = load_snapshot(
        base_path, &world.fleet, &world.registry, StoreConfig{threads}, lazy);
    EXPECT_EQ(apply_delta_log(recovered, log_path),
              ticks.size() - base_ticks);
    recovered.refresh();
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_same_store(live, recovered);
  }
  std::remove(base_path.c_str());
  std::remove(log_path.c_str());
}

TEST(IncrementalRefresh, OracleMatchesFullScanAfterEveryRefresh) {
  const CampaignWorld world;
  const auto ticks = rows_by_tick(world.run());
  const std::vector<Query> queries = scenario_queries(world.fleet);
  ColumnarStore live(&world.fleet, &world.registry, StoreConfig{8});
  const Oracle oracle(static_cast<const ColumnarStore*>(&live),
                      OracleConfig{8, {}});
  std::vector<atlas::Measurement> seen_rows;
  for (std::size_t t = 0; t < ticks.size(); ++t) {
    live.append(ticks[t]);
    live.refresh();
    seen_rows.insert(seen_rows.end(), ticks[t].begin(), ticks[t].end());
    const atlas::MeasurementDataset seen(&world.fleet, &world.registry,
                                         seen_rows);
    const ReferenceOracle reference(&seen);
    std::string why;
    EXPECT_TRUE(answers_identical(reference.answer(queries),
                                  oracle.answer(queries), why))
        << "after tick " << t << ": " << why;
  }
}

TEST(IncrementalRefresh, RefreshRowsCountsOnlyTheNewDay) {
  const CampaignWorld world;
  const auto ticks = rows_by_tick(world.run());
  ASSERT_GT(ticks.size(), 1u);
  const auto base = concat(std::span(ticks).first(ticks.size() - 1));
  std::vector<std::uint64_t> per_threads;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    obs::MetricsRegistry metrics;
    ColumnarStore store(&world.fleet, &world.registry, StoreConfig{threads});
    store.attach_metrics(&metrics);
    store.append(base);
    store.refresh();
    const std::uint64_t base_folded =
        metrics.counter("serve.store.refresh_rows").value();
    EXPECT_EQ(base_folded, store.rows_stored());

    const std::size_t stored_before = store.rows_stored();
    store.append(ticks.back());
    store.refresh();
    const std::uint64_t day_folded =
        metrics.counter("serve.store.refresh_rows").value() -
        base_folded;
    const std::size_t day_stored = store.rows_stored() - stored_before;
    ASSERT_GT(day_stored, 0u);
    EXPECT_EQ(day_folded, day_stored);
    EXPECT_LT(day_folded, store.rows_stored());
    // A refresh with nothing new folds nothing.
    store.refresh();
    EXPECT_EQ(metrics.counter("serve.store.refresh_rows").value(),
              base_folded + day_folded);
    per_threads.push_back(day_folded);
  }
  EXPECT_EQ(per_threads[0], per_threads[1]);
}

}  // namespace
}  // namespace shears::serve
