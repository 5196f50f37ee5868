#include "serve/columnar.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace shears::serve {

namespace {

constexpr std::uint32_t kSkipKey = 0xffffffffu;

/// Hard per-shard capacity: the scatter indexes shard slots with
/// std::uint32_t offsets, so a shard can never exceed 2^32 - 1 rows.
constexpr std::uint64_t kMaxShardRows = 0xffffffffu;

/// Worker count for per-shard-heavy work (sorting summaries): unlike the
/// record scans behind core::resolve_threads, each unit here is worth a
/// thread well below 16k items.
[[nodiscard]] std::size_t heavy_threads(std::size_t requested,
                                        std::size_t items) noexcept {
  std::size_t n = requested != 0
                      ? requested
                      : static_cast<std::size_t>(
                            std::thread::hardware_concurrency());
  if (n == 0) n = 1;
  return std::max<std::size_t>(1, std::min(n, items));
}

}  // namespace

std::size_t country_index_of(const geo::Country* country) {
  const std::span<const geo::Country> all = geo::all_countries();
  if (country == nullptr || country < all.data() ||
      country >= all.data() + all.size()) {
    throw std::invalid_argument(
        "serve: probe country is not an entry of geo::all_countries()");
  }
  return static_cast<std::size_t>(country - all.data());
}

ColumnarStore::ColumnarStore(const atlas::ProbeFleet* fleet,
                             const topology::CloudRegistry* registry,
                             StoreConfig config)
    : fleet_(fleet), registry_(registry), config_(config) {
  probe_key_.reserve(fleet_->size());
  for (const atlas::Probe& probe : fleet_->probes()) {
    if (probe.privileged()) {
      probe_key_.push_back(kSkipKey);
      continue;
    }
    const std::size_t country = country_index_of(probe.country);
    probe_key_.push_back(static_cast<std::uint32_t>(
        country * net::kAccessTechnologyCount +
        static_cast<std::size_t>(probe.endpoint.access)));
  }
  groups_.resize(geo::country_count() * net::kAccessTechnologyCount);
  country_stats_.resize(geo::country_count());
  country_dirty_.assign(geo::country_count(), false);
}

ColumnarStore ColumnarStore::build(const atlas::MeasurementDataset& dataset,
                                   StoreConfig config) {
  ColumnarStore store(&dataset.fleet(), &dataset.registry(), config);
  store.append(dataset.records());
  store.refresh();
  return store;
}

void ColumnarStore::append(std::span<const atlas::Measurement> rows) {
  if (rows.empty()) return;
  if (rows.size() > kMaxShardRows) {
    // Keeps every pass-1 per-shard count exact in 32 bits; callers this
    // large must chunk (the sink path already does).
    throw std::length_error(
        "ColumnarStore::append: batch of " + std::to_string(rows.size()) +
        " rows exceeds the 2^32 - 1 per-call limit; split the batch");
  }
  const std::size_t keys = key_count();
  const std::size_t shards = core::resolve_threads(config_.threads,
                                                   rows.size());

  // Pass 1 — per-(shard, key) counts. Workers must not throw (they run on
  // bare std::thread), so validation failures are collected and raised
  // after the join.
  std::vector<std::vector<std::uint32_t>> counts(
      shards, std::vector<std::uint32_t>(keys, 0));
  std::atomic<std::size_t> first_bad{rows.size()};
  const std::uint16_t region_limit =
      static_cast<std::uint16_t>(registry_->size());
  core::parallel_shards(rows.size(), shards,
                        [&](std::size_t s, std::size_t begin,
                            std::size_t end) {
    std::vector<std::uint32_t>& local = counts[s];
    for (std::size_t i = begin; i < end; ++i) {
      const atlas::Measurement& m = rows[i];
      if (m.probe_id >= probe_key_.size() || m.region_index >= region_limit) {
        std::size_t expected = first_bad.load(std::memory_order_relaxed);
        while (i < expected &&
               !first_bad.compare_exchange_weak(expected, i)) {
        }
        return;
      }
      const std::uint32_t key = probe_key_[m.probe_id];
      if (key == kSkipKey || m.lost()) continue;
      ++local[key];
    }
  });
  if (first_bad.load() != rows.size()) {
    throw std::invalid_argument(
        "ColumnarStore::append: row " + std::to_string(first_bad.load()) +
        " does not resolve against the bound fleet/registry");
  }

  // Capacity check, in 64 bits and *before* any group is touched: the
  // scatter below indexes shard slots with std::uint32_t offsets, so
  // growth past 2^32 - 1 rows per shard (or past the configured cap)
  // would silently wrap the offsets and corrupt the store. A violation
  // throws here and leaves the store exactly as it was.
  const std::uint64_t shard_limit =
      config_.max_shard_rows == 0
          ? kMaxShardRows
          : std::min(config_.max_shard_rows, kMaxShardRows);
  for (std::size_t key = 0; key < keys; ++key) {
    std::uint64_t incoming = 0;
    for (std::size_t s = 0; s < shards; ++s) incoming += counts[s][key];
    if (incoming == 0) continue;
    const std::uint64_t grown = groups_[key].rtt_ms.size() + incoming;
    if (grown > shard_limit) {
      const geo::Country& country =
          geo::all_countries()[key / net::kAccessTechnologyCount];
      const auto access = static_cast<net::AccessTechnology>(
          key % net::kAccessTechnologyCount);
      throw std::length_error(
          "ColumnarStore::append: shard (" + std::string(country.iso2) +
          ", " + std::string(net::to_string(access)) + ") would grow to " +
          std::to_string(grown) + " rows, past its capacity of " +
          std::to_string(shard_limit) +
          " (u32 scatter offsets); no rows were appended");
    }
  }

  // Offsets: slot of a row = shard base + rows of its key in earlier
  // shards + local running count. Shards are contiguous input ranges, so
  // the slot equals the row's global rank within its key — independent
  // of the shard count.
  std::size_t appended = 0;
  std::vector<std::vector<std::uint32_t>> offsets = std::move(counts);
  for (std::size_t key = 0; key < keys; ++key) {
    std::uint32_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint32_t c = offsets[s][key];
      offsets[s][key] = total;
      total += c;
    }
    if (total == 0) continue;
    KeyGroup& group = groups_[key];
    const std::size_t base = group.rtt_ms.size();
    for (std::size_t s = 0; s < shards; ++s) {
      offsets[s][key] += static_cast<std::uint32_t>(base);
    }
    const std::size_t grown = base + total;
    group.probe_ids.resize(grown);
    group.region_index.resize(grown);
    group.ticks.resize(grown);
    group.rtt_ms.resize(grown);
    country_dirty_[key / net::kAccessTechnologyCount] = true;
    appended += total;
  }

  // Pass 2 — scatter. Every slot is written by exactly one worker.
  core::parallel_shards(rows.size(), shards,
                        [&](std::size_t s, std::size_t begin,
                            std::size_t end) {
    std::vector<std::uint32_t>& slot = offsets[s];
    for (std::size_t i = begin; i < end; ++i) {
      const atlas::Measurement& m = rows[i];
      const std::uint32_t key = probe_key_[m.probe_id];
      if (key == kSkipKey || m.lost()) continue;
      KeyGroup& group = groups_[key];
      const std::uint32_t at = slot[key]++;
      group.probe_ids[at] = m.probe_id;
      group.region_index[at] = m.region_index;
      group.ticks[at] = m.tick;
      group.rtt_ms[at] = m.min_ms;
    }
  });

  rows_stored_ += appended;
  rows_dropped_ += rows.size() - appended;
  if (appended != 0) fresh_ = false;
  if (metrics_ != nullptr) {
    metrics_->counter("serve.store.rows").add(appended);
    metrics_->counter("serve.store.dropped").add(rows.size() - appended);
    metrics_->counter("serve.store.appends").increment();
  }
}

namespace {

void set_scalars(RegionStats& cell) {
  cell.count = cell.ecdf.size();
  cell.min_ms = cell.ecdf.min();
  cell.median_ms = cell.ecdf.quantile(0.5);
  cell.p95_ms = cell.ecdf.quantile(0.95);
}

}  // namespace

std::size_t ColumnarStore::refresh_group(KeyGroup& group, bool keep_runs) {
  const std::size_t regions = registry_->size();
  const std::size_t begin = group.summarized;
  const std::size_t end = group.rtt_ms.size();
  // Bucket the new rows by region into exact-size buckets (counted
  // first), in ingestion order.
  std::vector<std::uint32_t> fill(regions, 0);
  for (std::size_t i = begin; i < end; ++i) ++fill[group.region_index[i]];
  std::vector<std::vector<double>> buckets(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    buckets[r].resize(fill[r]);
    fill[r] = 0;
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint16_t r = group.region_index[i];
    buckets[r][fill[r]++] = static_cast<double>(group.rtt_ms[i]);
  }

  if (group.stats.empty()) group.stats.resize(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    if (buckets[r].empty()) continue;
    std::sort(buckets[r].begin(), buckets[r].end());
    if (keep_runs) {
      group.runs.push_back(
          NewRun{static_cast<std::uint16_t>(r), buckets[r]});
    }
    RegionStats& cell = group.stats[r];
    cell.ecdf.merge_sorted(std::move(buckets[r]));
    set_scalars(cell);
  }
  group.summarized = end;
  return end - begin;
}

void ColumnarStore::refresh_country(std::size_t country_idx) {
  const std::size_t regions = registry_->size();
  std::vector<RegionStats>& rollup = country_stats_[country_idx];
  const std::span<KeyGroup> parts(
      groups_.data() + country_idx * net::kAccessTechnologyCount,
      net::kAccessTechnologyCount);

  if (rollup.empty()) {
    // First build of this rollup: merge the shard cells whole.
    rollup.resize(regions);
    for (std::size_t r = 0; r < regions; ++r) {
      std::array<const stats::Ecdf*, net::kAccessTechnologyCount> cells{};
      std::size_t used = 0;
      for (const KeyGroup& group : parts) {
        if (group.stats.empty() || group.stats[r].empty()) continue;
        cells[used++] = &group.stats[r].ecdf;
      }
      if (used == 0) continue;
      RegionStats& cell = rollup[r];
      cell.ecdf = stats::Ecdf::merged(
          std::span<const stats::Ecdf* const>(cells.data(), used));
      set_scalars(cell);
    }
    return;
  }

  // Built rollup: combine each touched region's new runs across the
  // access shards, then merge that one run into the rollup cell.
  std::vector<std::vector<double>> combined(regions);
  for (KeyGroup& group : parts) {
    for (NewRun& run : group.runs) {
      std::vector<double>& into = combined[run.region];
      if (into.empty()) {
        into = std::move(run.samples);
        continue;
      }
      const std::size_t mid = into.size();
      into.insert(into.end(), run.samples.begin(), run.samples.end());
      std::inplace_merge(into.begin(),
                         into.begin() + static_cast<std::ptrdiff_t>(mid),
                         into.end());
    }
    group.runs.clear();
  }
  for (std::size_t r = 0; r < regions; ++r) {
    if (combined[r].empty()) continue;
    RegionStats& cell = rollup[r];
    cell.ecdf.merge_sorted(std::move(combined[r]));
    set_scalars(cell);
  }
}

void ColumnarStore::refresh() {
  if (fresh_) return;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint32_t> dirty;
  for (std::uint32_t key = 0; key < key_count(); ++key) {
    if (groups_[key].dirty()) dirty.push_back(key);
  }
  std::vector<std::size_t> folded(dirty.size(), 0);
  const std::size_t threads = heavy_threads(config_.threads, dirty.size());
  core::parallel_shards(dirty.size(), threads,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t key = dirty[i];
      const bool rollup_built =
          !country_stats_[key / net::kAccessTechnologyCount].empty();
      folded[i] = refresh_group(groups_[key], rollup_built);
    }
  });

  std::vector<std::uint32_t> dirty_countries;
  for (std::uint32_t c = 0; c < country_dirty_.size(); ++c) {
    if (country_dirty_[c]) dirty_countries.push_back(c);
  }
  const std::size_t country_threads =
      heavy_threads(config_.threads, dirty_countries.size());
  core::parallel_shards(dirty_countries.size(), country_threads,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      refresh_country(dirty_countries[i]);
    }
  });
  country_dirty_.assign(country_dirty_.size(), false);
  fresh_ = true;

  if (metrics_ != nullptr) {
    std::size_t rows = 0;
    for (const std::size_t n : folded) rows += n;
    metrics_->counter("serve.store.refreshed_shards").add(dirty.size());
    metrics_->counter("serve.store.refresh_rows").add(rows);
    metrics_->histogram("serve.store.refresh_ms")
        .record(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count());
  }
}

std::size_t ColumnarStore::shard_count() const noexcept {
  std::size_t n = 0;
  for (const KeyGroup& group : groups_) {
    if (!group.rtt_ms.empty()) ++n;
  }
  return n;
}

std::span<const RegionStats> ColumnarStore::shard_stats(
    std::size_t country_index, net::AccessTechnology access) const {
  if (!fresh_) {
    throw std::logic_error("ColumnarStore: refresh() before reading stats");
  }
  if (country_index >= geo::country_count()) return {};
  const KeyGroup& group =
      groups_[country_index * net::kAccessTechnologyCount +
              static_cast<std::size_t>(access)];
  return group.stats;
}

std::span<const RegionStats> ColumnarStore::country_stats(
    std::size_t country_index) const {
  if (!fresh_) {
    throw std::logic_error("ColumnarStore: refresh() before reading stats");
  }
  if (country_index >= geo::country_count()) return {};
  return country_stats_[country_index];
}

ColumnarStore::ScanSummary ColumnarStore::scan_region(
    std::size_t country_index, net::AccessTechnology access,
    std::uint16_t region, float budget_ms,
    const ScanKernels& kernels) const {
  ScanSummary out;
  if (country_index >= geo::country_count()) return out;
  const KeyGroup& group =
      groups_[country_index * net::kAccessTechnologyCount +
              static_cast<std::size_t>(access)];
  // Gather the cell's samples off the region-filtered column. The value
  // multiset (and so every kernel result) matches the Ecdf summary
  // exactly.
  std::vector<float> values;
  values.reserve(group.rtt_ms.size());
  for (std::size_t i = 0; i < group.rtt_ms.size(); ++i) {
    if (group.region_index[i] == region) values.push_back(group.rtt_ms[i]);
  }
  if (values.empty()) return out;
  const float* data = values.data();
  const std::size_t n = values.size();
  out.count = n;
  out.min_ms = static_cast<double>(kernels.min(data, n));
  out.median_ms = quantile_type7(kernels, data, n, 0.5);
  out.p95_ms = quantile_type7(kernels, data, n, 0.95);
  out.within_budget = kernels.count_le(data, n, budget_ms);
  return out;
}

std::vector<ColumnarStore::ShardView> ColumnarStore::shards() const {
  std::vector<ShardView> views;
  const std::span<const geo::Country> all = geo::all_countries();
  for (std::size_t key = 0; key < key_count(); ++key) {
    const KeyGroup& group = groups_[key];
    if (group.rtt_ms.empty()) continue;
    views.push_back(ShardView{
        &all[key / net::kAccessTechnologyCount],
        static_cast<net::AccessTechnology>(key % net::kAccessTechnologyCount),
        group.probe_ids,
        group.region_index,
        group.ticks,
        group.rtt_ms,
    });
  }
  return views;
}

void ColumnarStore::attach_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

}  // namespace shears::serve
