// Snapshot persistence: save → load must reproduce the store byte for
// byte (columns, counters, every summary scalar), across build paths,
// thread counts, file and mmap loads, and mid-ingest snapshots that are
// appended to after loading. The corrupt-file corpus pins the error
// confinement contract: a damaged image — truncated, bit-flipped,
// wrong version, wrong fleet — throws a precise SnapshotError or
// io::BlockError and never yields a partial store. The delta log is
// exercised end to end: publish / crash-recover / extend / compact /
// torn tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/tags.hpp"
#include "config/scenario.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/country.hpp"
#include "io/block_file.hpp"
#include "net/latency_model.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"
#include "topology/registry.hpp"

namespace shears::serve {
namespace {

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

/// Same tiny fixed world the store tests use: DE ethernet, DE LTE, FR
/// ethernet, plus one privileged DE probe the store must drop.
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

  [[nodiscard]] std::vector<atlas::Measurement> standard_rows() const {
    return {
        row(0, 0, 0, 20.0f), row(0, 0, 1, 10.0f), row(0, 0, 2, 40.0f),
        row(0, 0, 3, 30.0f),                      // DE/eth region 0
        row(1, 0, 0, 50.0f), row(1, 0, 1, 5.0f),  // DE/lte region 0
        row(2, 1, 0, 70.0f),                      // FR/eth region 1
        row(3, 0, 0, 1.0f),                       // privileged: dropped
        row(0, 1, 0, 90.0f, 0),                   // lost: dropped
    };
  }
};

/// A small but real campaign dataset for the identity tests.
struct CampaignWorld {
  topology::CloudRegistry registry =
      topology::CloudRegistry::campaign_footprint();
  atlas::ProbeFleet fleet;
  net::LatencyModel model;
  atlas::CampaignConfig config;

  CampaignWorld()
      : fleet(atlas::ProbeFleet::generate(small_fleet())),
        model(net::LatencyModelConfig{}) {
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
    const auto stats_a = a.shard_stats(country, shards_a[s].access);
    const auto stats_b = b.shard_stats(country, shards_b[s].access);
    ASSERT_EQ(stats_a.size(), stats_b.size());
    for (std::size_t r = 0; r < stats_a.size(); ++r) {
      ASSERT_EQ(stats_a[r].count, stats_b[r].count);
      ASSERT_EQ(stats_a[r].min_ms, stats_b[r].min_ms);
      ASSERT_EQ(stats_a[r].median_ms, stats_b[r].median_ms);
      ASSERT_EQ(stats_a[r].p95_ms, stats_b[r].p95_ms);
      ASSERT_EQ(stats_a[r].ecdf.sorted(), stats_b[r].ecdf.sorted());
    }
    const auto rollup_a = a.country_stats(country);
    const auto rollup_b = b.country_stats(country);
    ASSERT_EQ(rollup_a.size(), rollup_b.size());
    for (std::size_t r = 0; r < rollup_a.size(); ++r) {
      ASSERT_EQ(rollup_a[r].count, rollup_b[r].count);
      ASSERT_EQ(rollup_a[r].min_ms, rollup_b[r].min_ms);
      ASSERT_EQ(rollup_a[r].median_ms, rollup_b[r].median_ms);
      ASSERT_EQ(rollup_a[r].p95_ms, rollup_b[r].p95_ms);
      ASSERT_EQ(rollup_a[r].ecdf.sorted(), rollup_b[r].ecdf.sorted());
    }
  }
}

[[nodiscard]] std::vector<std::uint8_t> image_of(const ColumnarStore& store) {
  std::ostringstream os(std::ios::binary);
  save_snapshot(store, os);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

[[nodiscard]] ColumnarStore load_image(const std::vector<std::uint8_t>& image,
                                       const TinyWorld& world,
                                       SnapshotLoadOptions options = {}) {
  return load_snapshot(image, &world.fleet, &world.registry, StoreConfig{1},
                       options);
}

// Container header is 16 bytes; the first block (META) starts right
// after it, its payload 16 block-header bytes later. The corpus tests
// patch payload fields and re-seal the CRC so corruption reaches the
// *semantic* validators instead of the checksum.
constexpr std::size_t kMetaBlockAt = io::kContainerHeaderBytes;
constexpr std::size_t kMetaPayloadAt = kMetaBlockAt + io::kBlockHeaderBytes;

[[nodiscard]] std::uint64_t block_payload_len(
    const std::vector<std::uint8_t>& image, std::size_t block_at) {
  std::uint64_t len = 0;
  std::memcpy(&len, image.data() + block_at + 4, sizeof(len));
  return len;
}

void reseal_block_crc(std::vector<std::uint8_t>& image, std::size_t block_at) {
  const auto len = static_cast<std::size_t>(block_payload_len(image, block_at));
  std::uint32_t crc = io::crc32({image.data() + block_at, 12});
  crc = io::crc32({image.data() + block_at + io::kBlockHeaderBytes, len}, crc);
  std::memcpy(image.data() + block_at + 12, &crc, sizeof(crc));
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ------------------------------------------------------------ round-trip

TEST(Snapshot, TinyRoundTripIsExact) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();

  const std::vector<std::uint8_t> image = image_of(store);
  ColumnarStore loaded = load_image(image, world);
  EXPECT_TRUE(loaded.fresh());
  expect_same_store(store, loaded);

  // Saving the loaded store reproduces the image bit for bit — the
  // format round-trips through itself, not just through the store.
  EXPECT_EQ(image_of(loaded), image);
}

TEST(Snapshot, EmptyStoreRoundTrips) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  ASSERT_TRUE(store.fresh());

  ColumnarStore loaded = load_image(image_of(store), world);
  EXPECT_TRUE(loaded.fresh());
  EXPECT_EQ(loaded.rows_stored(), 0u);
  EXPECT_EQ(loaded.rows_dropped(), 0u);
  EXPECT_EQ(loaded.shard_count(), 0u);
}

TEST(Snapshot, StaleStoreRefusesToSave) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  ASSERT_FALSE(store.fresh());
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(save_snapshot(store, os), std::logic_error);
}

TEST(Snapshot, LazyLoadDefersSummariesButKeepsColumns) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();

  SnapshotLoadOptions lazy;
  lazy.lazy_summaries = true;
  ColumnarStore loaded = load_image(image_of(store), world, lazy);
  EXPECT_FALSE(loaded.fresh());
  EXPECT_THROW((void)loaded.country_stats(0), std::logic_error);
  loaded.refresh();
  expect_same_store(store, loaded);
}

TEST(Snapshot, MidIngestSnapshotPlusAppendEqualsFullBuild) {
  // The satellite identity: build(N+M) == snapshot(N) → load → append(M),
  // for 1 and 8 worker threads on both sides of the snapshot.
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  ASSERT_GT(dataset.size(), 0u);
  const ColumnarStore one_shot = ColumnarStore::build(dataset, StoreConfig{1});

  const auto rows = dataset.records();
  const std::size_t cut = rows.size() / 3 + 1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ColumnarStore partial(&dataset.fleet(), &dataset.registry(),
                          StoreConfig{threads});
    partial.append(rows.subspan(0, cut));
    partial.refresh();

    ColumnarStore resumed =
        load_snapshot(image_of(partial), &dataset.fleet(),
                      &dataset.registry(), StoreConfig{threads});
    resumed.append(rows.subspan(cut));
    resumed.refresh();
    expect_same_store(one_shot, resumed);
  }
}

TEST(Snapshot, FileRoundTripBufferedAndMmap) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();

  const std::string path = temp_path("snapshot_roundtrip.snap");
  save_snapshot(store, path);

  ColumnarStore buffered =
      load_snapshot(path, &world.fleet, &world.registry, StoreConfig{1});
  expect_same_store(store, buffered);

  SnapshotLoadOptions mmap;
  mmap.mmap = true;
  ColumnarStore mapped = load_snapshot(path, &world.fleet, &world.registry,
                                       StoreConfig{1}, mmap);
  expect_same_store(store, mapped);
}

TEST(Snapshot, SaveToUnwritablePathLeavesNoFile) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.refresh();
  const std::string path =
      temp_path("no_such_dir") + "/nested/snapshot.snap";
  EXPECT_THROW(save_snapshot(store, path), io::BlockError);
  EXPECT_FALSE(std::ifstream(path).good());
}

// --------------------------------------------------------- wrong worlds

TEST(Snapshot, WrongFleetIsRejected) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();
  const std::vector<std::uint8_t> image = image_of(store);

  // Same shape, one probe's access differs — the fingerprint must see it.
  const atlas::ProbeFleet other = atlas::ProbeFleet::from_probes({
      make_probe(0, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(1, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(2, "FR", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(3, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kDatacenter),
  });
  try {
    (void)load_snapshot(image, &other, &world.registry);
    FAIL() << "wrong fleet accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("fleet fingerprint"),
              std::string::npos)
        << error.what();
  }
}

TEST(Snapshot, WrongRegistryIsRejected) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());
  store.refresh();
  const std::vector<std::uint8_t> image = image_of(store);

  const topology::CloudRegistry other({topology::all_regions().data(),
                                       topology::all_regions().data() + 1});
  try {
    (void)load_snapshot(image, &world.fleet, &other);
    FAIL() << "wrong registry accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("registry fingerprint"),
              std::string::npos)
        << error.what();
  }
}

// -------------------------------------------------------- corrupt corpus

class SnapshotCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.emplace(&world_.fleet, &world_.registry, StoreConfig{1});
    store_->append(world_.standard_rows());
    store_->refresh();
    image_ = image_of(*store_);
  }

  TinyWorld world_;
  std::optional<ColumnarStore> store_;
  std::vector<std::uint8_t> image_;
};

TEST_F(SnapshotCorpus, TruncationAnywhereIsDetected) {
  // Every strict prefix must fail — header-only, mid-block-header,
  // mid-payload, and one byte short of complete.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, io::kContainerHeaderBytes,
        kMetaPayloadAt - 3, kMetaPayloadAt + 20, image_.size() - 1}) {
    const std::vector<std::uint8_t> cut(image_.begin(),
                                        image_.begin() + keep);
    EXPECT_THROW((void)load_image(cut, world_), io::BlockError)
        << "prefix of " << keep << " bytes";
  }
}

TEST_F(SnapshotCorpus, FlippedByteFailsTheChecksum) {
  // Flip one bit in every 13th byte past the container header — block
  // heads and payloads alike must be caught by the CRC (or, for the
  // CRC field itself, by the mismatch it creates).
  for (std::size_t at = io::kContainerHeaderBytes; at < image_.size();
       at += 13) {
    std::vector<std::uint8_t> bad = image_;
    bad[at] ^= 0x10;
    EXPECT_THROW((void)load_image(bad, world_), io::BlockError)
        << "flip at byte " << at;
  }
}

TEST_F(SnapshotCorpus, WrongContainerVersionIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  bad[8] = 0x7f;  // container version field, not covered by a block CRC
  EXPECT_THROW((void)load_image(bad, world_), io::BlockError);
}

TEST_F(SnapshotCorpus, WrongApplicationTagIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  bad[12] = 'X';  // app fourcc: a delta log is not a snapshot
  EXPECT_THROW((void)load_image(bad, world_), io::BlockError);
}

TEST_F(SnapshotCorpus, WrongSnapshotVersionIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  const std::uint32_t version = 99;
  std::memcpy(bad.data() + kMetaPayloadAt, &version, sizeof(version));
  reseal_block_crc(bad, kMetaBlockAt);
  try {
    (void)load_image(bad, world_);
    FAIL() << "wrong snapshot version accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported snapshot version"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotCorpus, WrongFleetHashIsRejected) {
  std::vector<std::uint8_t> bad = image_;
  bad[kMetaPayloadAt + 4] ^= 0xff;  // fleet fingerprint, first byte
  reseal_block_crc(bad, kMetaBlockAt);
  try {
    (void)load_image(bad, world_);
    FAIL() << "wrong fleet hash accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("fleet fingerprint"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotCorpus, ScalarTripwireCatchesColumnTampering) {
  // Rewrite the last RTT of the first shard to a different finite value
  // and re-seal the CRC: the checksum passes, row validation passes,
  // but the summaries rebuilt from the columns no longer match the
  // scalars recorded at save time.
  std::vector<std::uint8_t> bad = image_;
  const std::size_t shard_at =
      kMetaPayloadAt +
      static_cast<std::size_t>(block_payload_len(bad, kMetaBlockAt));
  const auto shard_len =
      static_cast<std::size_t>(block_payload_len(bad, shard_at));
  const float forged = 999.0f;
  std::memcpy(bad.data() + shard_at + io::kBlockHeaderBytes + shard_len -
                  sizeof(float),
              &forged, sizeof(forged));
  reseal_block_crc(bad, shard_at);
  try {
    (void)load_image(bad, world_);
    FAIL() << "tampered column accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("does not match the scalars"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotCorpus, NegativeRttIsRejectedAtRowValidation) {
  std::vector<std::uint8_t> bad = image_;
  const std::size_t shard_at =
      kMetaPayloadAt +
      static_cast<std::size_t>(block_payload_len(bad, kMetaBlockAt));
  const auto shard_len =
      static_cast<std::size_t>(block_payload_len(bad, shard_at));
  const float forged = -1.0f;
  std::memcpy(bad.data() + shard_at + io::kBlockHeaderBytes + shard_len -
                  sizeof(float),
              &forged, sizeof(forged));
  reseal_block_crc(bad, shard_at);
  try {
    (void)load_image(bad, world_);
    FAIL() << "negative RTT accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("negative RTT"),
              std::string::npos)
        << error.what();
  }
}

// ------------------------------------------------- shard overflow guard

TEST(StoreOverflowGuard, CapacityIsEnforcedWithStrongGuarantee) {
  // Regression for the u32 scatter-offset overflow: growth past the
  // per-shard ceiling must throw *before* any row lands. The synthetic
  // near-limit cap stands in for 2^32 - 1.
  const TinyWorld world;
  StoreConfig config;
  config.threads = 1;
  config.max_shard_rows = 4;
  ColumnarStore store(&world.fleet, &world.registry, config);

  std::vector<atlas::Measurement> five;
  for (std::uint32_t t = 0; t < 5; ++t) five.push_back(row(0, 0, t, 10.0f));
  try {
    store.append(five);
    FAIL() << "over-capacity batch accepted";
  } catch (const std::length_error& error) {
    EXPECT_NE(std::string(error.what()).find("DE"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("no rows were appended"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(store.rows_stored(), 0u);  // strong guarantee: nothing landed

  // Filling exactly to the cap works; one more row over is refused and
  // leaves the store untouched — including rows bound for *other*
  // shards in the same rejected batch.
  five.pop_back();
  store.append(five);
  EXPECT_EQ(store.rows_stored(), 4u);
  EXPECT_THROW(
      store.append(std::vector<atlas::Measurement>{row(0, 0, 9, 10.0f),
                                                   row(2, 1, 9, 70.0f)}),
      std::length_error);
  EXPECT_EQ(store.rows_stored(), 4u);
  store.refresh();
  EXPECT_EQ(store.shard_count(), 1u);
}

TEST(StoreOverflowGuard, LoadedStoreInheritsTheConfiguredCap) {
  // A store restored from a snapshot must keep refusing growth past the
  // cap its loader configured.
  const TinyWorld world;
  StoreConfig config;
  config.threads = 1;
  config.max_shard_rows = 4;
  ColumnarStore store(&world.fleet, &world.registry, config);
  std::vector<atlas::Measurement> four;
  for (std::uint32_t t = 0; t < 4; ++t) four.push_back(row(0, 0, t, 10.0f));
  store.append(four);
  store.refresh();

  ColumnarStore loaded =
      load_snapshot(image_of(store), &world.fleet, &world.registry, config);
  EXPECT_THROW(
      loaded.append(std::vector<atlas::Measurement>{row(0, 0, 9, 10.0f)}),
      std::length_error);
}

// ------------------------------------------------------------ delta log

TEST(DeltaLog, BasePlusLogRecoversTheCrashedStore) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();

  // Base snapshot after the first three rows...
  store.append(std::span<const atlas::Measurement>(rows).subspan(0, 3));
  store.refresh();
  const std::string base = temp_path("delta_base.snap");
  const std::string log_path = temp_path("delta_tail.log");
  save_snapshot(store, base);

  // ...then two logged batches (the second carries the dropped rows).
  DeltaLog log(&store, log_path);
  log.publish(std::span<const atlas::Measurement>(rows).subspan(3, 3));
  log.publish(std::span<const atlas::Measurement>(rows).subspan(6));
  EXPECT_EQ(log.segments(), 2u);
  store.refresh();

  // "Crash": rebuild from base + log alone.
  ColumnarStore recovered =
      load_snapshot(base, &world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 2u);
  recovered.refresh();
  expect_same_store(store, recovered);
}

TEST(DeltaLog, EmptyPublishWritesNoSegment) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  DeltaLog log(&store, temp_path("delta_empty.log"));
  log.publish({});
  EXPECT_EQ(log.segments(), 0u);
}

TEST(DeltaLog, ExtendContinuesAValidLog) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();
  const std::string log_path = temp_path("delta_extend.log");

  {
    DeltaLog log(&store, log_path);
    log.publish(std::span<const atlas::Measurement>(rows).subspan(0, 4));
  }
  {
    DeltaLog log(&store, log_path, DeltaLog::Open::kExtend);
    EXPECT_EQ(log.segments(), 1u);
    log.publish(std::span<const atlas::Measurement>(rows).subspan(4));
    EXPECT_EQ(log.segments(), 2u);
  }
  store.refresh();

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 2u);
  recovered.refresh();
  expect_same_store(store, recovered);
}

TEST(DeltaLog, ExtendRejectsAStoreTheLogDoesNotExplain) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();
  const std::string log_path = temp_path("delta_drift.log");
  {
    DeltaLog log(&store, log_path);
    log.publish(std::span<const atlas::Measurement>(rows).subspan(0, 4));
  }
  // Rows appended *outside* the log: replaying it would lose them.
  store.append(std::span<const atlas::Measurement>(rows).subspan(4, 2));
  try {
    DeltaLog log(&store, log_path, DeltaLog::Open::kExtend);
    FAIL() << "drifted store accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("row accounting"),
              std::string::npos)
        << error.what();
  }
}

TEST(DeltaLog, CompactFoldsTheLogIntoAFreshBase) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = world.standard_rows();
  const std::string base = temp_path("compact_base.snap");
  const std::string log_path = temp_path("compact_tail.log");

  DeltaLog log(&store, log_path);
  log.publish(std::span<const atlas::Measurement>(rows).subspan(0, 5));
  store.refresh();
  log.compact(base);
  EXPECT_EQ(log.segments(), 0u);
  log.publish(std::span<const atlas::Measurement>(rows).subspan(5));
  store.refresh();

  ColumnarStore recovered =
      load_snapshot(base, &world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 1u);
  recovered.refresh();
  expect_same_store(store, recovered);
}

TEST(DeltaLog, TornTailIsDetected) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::string log_path = temp_path("delta_torn.log");
  {
    DeltaLog log(&store, log_path);
    log.publish(world.standard_rows());
  }

  // Chop a few bytes off the tail — the crash-mid-write shape.
  std::vector<char> bytes;
  {
    std::ifstream in(log_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 5u);
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_THROW((void)apply_delta_log(recovered, log_path), io::BlockError);
  EXPECT_EQ(recovered.rows_stored(), 0u);  // all-or-nothing replay
}

TEST(DeltaLog, ApplyRejectsTheWrongBase) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(world.standard_rows());  // log base records these counters
  const std::string log_path = temp_path("delta_wrong_base.log");
  DeltaLog log(&store, log_path);

  ColumnarStore empty(&world.fleet, &world.registry, StoreConfig{1});
  try {
    (void)apply_delta_log(empty, log_path);
    FAIL() << "wrong base accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("base rows"), std::string::npos)
        << error.what();
  }
}

TEST(DeltaLog, FailedStoreAppendNeverReachesTheLog) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::string log_path = temp_path("delta_poison.log");
  DeltaLog log(&store, log_path);
  log.publish(std::vector<atlas::Measurement>{row(0, 0, 0, 10.0f)});

  // A batch the store rejects (unresolvable probe) must not grow the log.
  EXPECT_THROW(
      log.publish(std::vector<atlas::Measurement>{row(99, 0, 1, 10.0f)}),
      std::invalid_argument);
  EXPECT_EQ(log.segments(), 1u);

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), 1u);
  EXPECT_EQ(recovered.rows_stored(), 1u);
}

TEST(DeltaLog, CampaignSinkLogReplaysToTheSameStore) {
  // End to end: a campaign streams through the DeltaLog sink from an
  // empty base; replaying the log alone rebuilds the identical store.
  const CampaignWorld world;
  ColumnarStore live(&world.fleet, &world.registry, StoreConfig{2});
  const std::string log_path = temp_path("delta_campaign.log");
  DeltaLog log(&live, log_path);

  atlas::Campaign campaign(world.fleet, world.registry, world.model,
                           world.config);
  campaign.attach_sink(&log);
  (void)campaign.run();
  ASSERT_GT(log.segments(), 0u);
  live.refresh();

  ColumnarStore recovered(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_EQ(apply_delta_log(recovered, log_path), log.segments());
  recovered.refresh();
  expect_same_store(live, recovered);
}

// ---------------------------------------------- shipped scenarios

/// Deterministic mixed query batch over a fleet — the shape
/// test_serve's scenario suite uses: every kind, location and ISO-2
/// resolution, per-access filters, real and bogus app slugs.
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

class ScenarioSnapshot : public testing::TestWithParam<const char*> {};

// The acceptance bar for persistence: on every shipped scenario, a
// store loaded from a snapshot answers the full mixed query batch
// byte-identically to the live-built store it was saved from — at 1
// and 8 oracle threads, eager and lazy — and re-saving it reproduces
// the image bit for bit.
TEST_P(ScenarioSnapshot, LoadedStoreAnswersIdentically) {
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

  const ColumnarStore live = ColumnarStore::build(dataset, StoreConfig{1});
  const std::vector<Query> queries = scenario_queries(fleet);
  const std::vector<Answer> expected =
      Oracle(&live, OracleConfig{1, {}}).answer(queries);

  std::ostringstream image;
  save_snapshot(live, image);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const bool lazy : {false, true}) {
      SnapshotLoadOptions options;
      options.lazy_summaries = lazy;
      const std::string bytes = image.str();
      ColumnarStore loaded = load_snapshot(
          {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
          &fleet, &registry, StoreConfig{threads}, options);
      if (lazy) loaded.refresh();
      const std::vector<Answer> got =
          Oracle(&loaded, OracleConfig{threads, {}}).answer(queries);
      std::string why;
      EXPECT_TRUE(answers_identical(expected, got, why))
          << GetParam() << " (threads " << threads << ", lazy " << lazy
          << "): " << why;
      std::ostringstream resaved;
      save_snapshot(loaded, resaved);
      EXPECT_EQ(resaved.str(), image.str())
          << GetParam() << ": re-saved image diverges";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShippedScenarios, ScenarioSnapshot,
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

// ---------------------------------------------------------- fingerprints

TEST(Fingerprints, SensitiveToEveryIdentityField) {
  const TinyWorld world;
  const std::uint64_t base = fleet_fingerprint(world.fleet);
  EXPECT_EQ(base, fleet_fingerprint(world.fleet));  // deterministic

  const atlas::ProbeFleet moved = atlas::ProbeFleet::from_probes({
      make_probe(0, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kHome),
      make_probe(1, "DE", net::AccessTechnology::kLte,
                 atlas::Environment::kHome),
      make_probe(2, "AT", net::AccessTechnology::kEthernet,  // FR -> AT
                 atlas::Environment::kHome),
      make_probe(3, "DE", net::AccessTechnology::kEthernet,
                 atlas::Environment::kDatacenter),
  });
  EXPECT_NE(base, fleet_fingerprint(moved));

  const std::uint64_t registry_base = registry_fingerprint(world.registry);
  const topology::CloudRegistry shrunk({topology::all_regions().data(),
                                        topology::all_regions().data() + 1});
  EXPECT_NE(registry_base, registry_fingerprint(shrunk));
}

}  // namespace
}  // namespace shears::serve
