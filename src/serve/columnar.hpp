// The latency oracle's dataset store: a sharded, columnar (struct-of-
// arrays) layout over campaign measurement rows.
//
// The batch pipeline answers "is the cloud close enough from X over Y?"
// by re-scanning the whole dataset per question. The serving layer
// instead ingests rows once into shards keyed by the two dimensions
// every query filters on — (country, access technology) — and keeps
// per-shard pre-aggregated summaries (min / median / p95 RTT per target
// region, exact, via stats::Ecdf) plus per-country rollups across all
// access technologies. A query then touches one shard's summary table
// instead of millions of rows.
//
// Ingestion contract:
//   * append() is incremental — a running atlas::Campaign publishes its
//     records through the MeasurementSink hook and the store absorbs
//     them without a rebuild. Rows are scattered to their shard slots by
//     *global input order*, computed from contiguous-range counts, so
//     the stored columns (and therefore every summary) are byte-
//     identical whatever the chunking or the build thread count.
//   * Lost bursts (received == 0) and rows from privileged probes
//     (datacentre/cloud placement, excluded from every §4 analysis)
//     are dropped at the door and only counted.
//   * Summaries are extended lazily and incrementally. Each shard keeps
//     a watermark: rows below it are already folded into its cells.
//     append() adds rows above the watermark; refresh() buckets
//     just those new rows by region, sorts each small bucket and merges
//     it into the cell's sorted sample in O(n + m) (stats::Ecdf::
//     merge_sorted), shards in parallel. The country pass merges the
//     same new runs into only the rollup cells they touch. A fresh store
//     (first build, or load_snapshot with its watermarks at 0) takes the
//     same path from empty cells, and a country whose rollup is not built
//     yet merges its shard cells in one go.
//   * Byte identity: a multiset has exactly one sorted sequence, so a
//     cell's sample — and every scalar, rollup, snapshot summary and
//     oracle answer derived from it — is the same whether its rows came
//     in one refresh or many, in whatever chunks. (Stored RTTs are
//     finite and non-negative; the one pair of distinct doubles that
//     compare equal, -0.0 and +0.0, could land in either order.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "geo/country.hpp"
#include "net/access.hpp"
#include "serve/scan.hpp"
#include "stats/ecdf.hpp"
#include "topology/registry.hpp"

namespace shears::obs {
class MetricsRegistry;
}  // namespace shears::obs

namespace shears::serve {

struct StoreConfig {
  /// Worker threads for append scatter and summary refresh (0 = hardware
  /// concurrency). Stored bytes and summaries are identical for any
  /// value — the serve test suite pins it.
  std::size_t threads = 0;
  /// Upper bound on rows per (country, access) shard. 0 (the default)
  /// means the format's hard ceiling of 2^32 - 1 — the shard columns
  /// index rows with std::uint32_t offsets, so growth past that limit
  /// throws std::length_error instead of silently wrapping the scatter
  /// offsets and corrupting the store. Tests and capacity-capped
  /// deployments lower it; values above the ceiling are clamped to it.
  std::uint64_t max_shard_rows = 0;
};

/// Pre-aggregated latency summary of one (shard, target region) cell.
/// The full sorted sample rides along as an Ecdf, which is what makes
/// cells exactly mergeable into country rollups (stats::Ecdf::merged).
struct RegionStats {
  std::uint64_t count = 0;
  double min_ms = 0.0;
  double median_ms = 0.0;
  double p95_ms = 0.0;
  stats::Ecdf ecdf;

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
};

/// Index of a country inside geo::all_countries(). Throws
/// std::invalid_argument when the pointer is not into the registry table
/// (hand-built Country objects cannot be sharded on).
[[nodiscard]] std::size_t country_index_of(const geo::Country* country);

class ColumnarStore final : public atlas::MeasurementSink {
 public:
  /// An empty store over a fleet/registry pair; both must outlive it.
  /// Probe countries must point into geo::all_countries() (generated and
  /// find_country-built fleets do).
  ColumnarStore(const atlas::ProbeFleet* fleet,
                const topology::CloudRegistry* registry,
                StoreConfig config = {});

  /// Builds from a full dataset and refreshes the summaries.
  [[nodiscard]] static ColumnarStore build(
      const atlas::MeasurementDataset& dataset, StoreConfig config = {});

  /// Ingests rows (any chunking). Throws std::invalid_argument on a row
  /// whose probe id or region index does not resolve against the bound
  /// fleet/registry. Marks affected shards dirty; summaries go stale
  /// until refresh().
  void append(std::span<const atlas::Measurement> rows);

  /// MeasurementSink: a campaign attached via attach_sink() streams its
  /// records straight into the store.
  void publish(std::span<const atlas::Measurement> rows) override {
    append(rows);
  }

  /// Folds every row appended since the last refresh into its shard
  /// cell and country rollup cell (see the contract above). Idempotent
  /// and cheap when nothing changed.
  void refresh();

  /// True when every summary reflects every appended row.
  [[nodiscard]] bool fresh() const noexcept { return fresh_; }

  [[nodiscard]] const atlas::ProbeFleet& fleet() const noexcept {
    return *fleet_;
  }
  [[nodiscard]] const topology::CloudRegistry& registry() const noexcept {
    return *registry_;
  }

  [[nodiscard]] std::size_t rows_stored() const noexcept {
    return rows_stored_;
  }
  [[nodiscard]] std::size_t rows_dropped() const noexcept {
    return rows_dropped_;
  }
  /// Non-empty (country, access) shards.
  [[nodiscard]] std::size_t shard_count() const noexcept;

  /// Per-region summaries of one (country, access) shard, dense by
  /// region index; empty span when the shard holds no rows. Requires
  /// fresh() — call refresh() after appends.
  [[nodiscard]] std::span<const RegionStats> shard_stats(
      std::size_t country_index, net::AccessTechnology access) const;

  /// Country rollup across all access technologies (exact merge of the
  /// country's shard summaries). Requires fresh().
  [[nodiscard]] std::span<const RegionStats> country_stats(
      std::size_t country_index) const;

  /// Raw columns of one shard, in ingestion order (= dataset order) —
  /// the struct-of-arrays view tests and future scans consume.
  struct ShardView {
    const geo::Country* country = nullptr;
    net::AccessTechnology access = net::AccessTechnology::kEthernet;
    std::span<const std::uint32_t> probe_ids;
    std::span<const std::uint16_t> region_index;
    std::span<const std::uint32_t> ticks;
    std::span<const float> rtt_ms;
  };

  /// Views of every non-empty shard, ordered by (country index, access).
  [[nodiscard]] std::vector<ShardView> shards() const;

  /// Result of a direct kernel scan of one (shard, region) cell — the
  /// scan-kernel face of RegionStats. count / min_ms / median_ms /
  /// p95_ms are bit-identical to the Ecdf-based summary of the same
  /// cell; within_budget is the feasibility count (samples <=
  /// budget_ms).
  struct ScanSummary {
    std::uint64_t count = 0;
    double min_ms = 0.0;
    double median_ms = 0.0;
    double p95_ms = 0.0;
    std::uint64_t within_budget = 0;

    [[nodiscard]] bool empty() const noexcept { return count == 0; }
  };

  /// Scans one (country, access, region) cell straight off the raw RTT
  /// column with the given kernel family — no sort, no Ecdf, no
  /// refresh() required (raw columns are always current). The default
  /// overload uses active_scan_kernels() (AVX2 when available, scalar
  /// under SHEARS_FORCE_SCALAR); passing scalar_scan_kernels()
  /// explicitly is how tests and benches pin the fallback.
  [[nodiscard]] ScanSummary scan_region(std::size_t country_index,
                                        net::AccessTechnology access,
                                        std::uint16_t region,
                                        float budget_ms,
                                        const ScanKernels& kernels) const;
  [[nodiscard]] ScanSummary scan_region(std::size_t country_index,
                                        net::AccessTechnology access,
                                        std::uint16_t region,
                                        float budget_ms) const {
    return scan_region(country_index, access, region, budget_ms,
                       active_scan_kernels());
  }

  /// Publishes serve.store.* counters (rows, dropped, appends, refreshed
  /// shards, refresh_rows = rows folded into summaries by refreshes) and
  /// the serve.store.refresh_ms histogram. Observational
  /// only; nullptr detaches. `metrics` must outlive the store.
  void attach_metrics(obs::MetricsRegistry* metrics);

 private:
  /// Snapshot persistence (src/serve/snapshot.cpp) serialises the raw
  /// shard columns and counters and restores them on load; it is the
  /// only code with by-hand access to the representation.
  friend struct SnapshotAccess;

  /// Sorted samples one refresh added to one region of a shard — what
  /// the country pass merges into an already-built rollup cell.
  struct NewRun {
    std::uint16_t region = 0;
    std::vector<double> samples;
  };

  struct KeyGroup {
    std::vector<std::uint32_t> probe_ids;
    std::vector<std::uint16_t> region_index;
    std::vector<std::uint32_t> ticks;
    std::vector<float> rtt_ms;
    /// Dense by region index; extended by refresh() from the rows past
    /// the watermark.
    std::vector<RegionStats> stats;
    /// Watermark: rows [0, summarized) are folded into `stats`.
    std::size_t summarized = 0;
    /// The last refresh's new runs, ascending by region; filled only when
    /// the country rollup is already built, drained by its country pass.
    std::vector<NewRun> runs;

    [[nodiscard]] bool dirty() const noexcept {
      return summarized < rtt_ms.size();
    }
  };

  [[nodiscard]] std::size_t key_count() const noexcept {
    return groups_.size();
  }
  /// Folds the group's rows past the watermark into its cells; returns
  /// how many rows that was. `keep_runs` copies each region's new run
  /// into `group.runs` for the country pass.
  std::size_t refresh_group(KeyGroup& group, bool keep_runs);
  void refresh_country(std::size_t country_idx);

  const atlas::ProbeFleet* fleet_;
  const topology::CloudRegistry* registry_;
  StoreConfig config_;
  /// probe id -> shard key (country * kAccessTechnologyCount + access),
  /// or kSkipKey for privileged probes.
  std::vector<std::uint32_t> probe_key_;
  std::vector<KeyGroup> groups_;  ///< dense key universe
  /// Country rollups, dense by (country index, region index).
  std::vector<std::vector<RegionStats>> country_stats_;
  std::vector<bool> country_dirty_;
  std::size_t rows_stored_ = 0;
  std::size_t rows_dropped_ = 0;
  bool fresh_ = true;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace shears::serve
