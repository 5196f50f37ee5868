// Differential oracles: two independent paths through the stack must
// agree on the same generated world — bit for bit, except where an
// oracle documents an epsilon (the lane-batched engine). Each oracle
// throws PropertyFailure (with the world summary and the first
// divergence) when the two sides disagree; the property runner turns
// that into a seed-replayable counterexample.
#pragma once

#include "atlas/measurement.hpp"
#include "check/world.hpp"

namespace shears::check {

/// The sampling cache against the per-packet reference, on every probe ×
/// region pair of the world: each atlas::PathCache entry must equal
/// cache_path / cache_profile field for field, and ping_cached (both the
/// perturbed and the neutral overload) must equal ping_perturbed under
/// varied load, perturbation (neutral included) and 1-4 packets, with
/// the RNG streams still aligned after every burst. The campaign loop
/// itself is pinned by the golden checksums in test_sampling_cache.
void check_cached_sampling(const World& world);

/// Campaign determinism across worker counts: 1 thread vs 8 threads.
void check_campaign_thread_invariance(const World& world);

/// Scalar vs lane-batched campaign engine — the *epsilon-mode*
/// differential oracle of the SIMD kernels (DESIGN.md §6). On the same
/// world (faulted or clean, after switching off the resilience knobs the
/// kernel does not cover and pinning uptime to 1) the batched engine
/// must reproduce every record's structure exactly — probe/region/tick,
/// sent, retries, fault masks — while the sampled values (received,
/// RTTs) are held to *distributional* agreement: the kernel consumes
/// each stream on a fixed kind-major schedule with Box–Muller normals,
/// so loss rates and pooled RTT quantiles must agree within bounds, on
/// the whole dataset and on the faulted subset. The batched engine
/// itself must be byte-identical across 1 vs 8 threads.
void check_batched_vs_scalar(const World& world);

/// Every §4 analysis must reduce identically serial and sharded
/// (AnalysisOptions::threads 1 vs 8).
void check_analysis_thread_invariance(const World& world,
                                      const atlas::MeasurementDataset& dataset);

/// write_csv → read_csv and write_jsonl → read_jsonl must reproduce the
/// dataset record for record (and re-serialise to identical bytes).
void check_csv_roundtrip(const World& world,
                         const atlas::MeasurementDataset& dataset);
void check_jsonl_roundtrip(const World& world,
                           const atlas::MeasurementDataset& dataset);

/// An explicitly attached *empty* fault schedule must be byte-identical
/// to running the clean engine with no schedule at all.
void check_empty_schedule_identity(const World& world);

/// geo::SpatialIndex vs a brute-force haversine scan over the same
/// points: nearest / nearest_n / within_radius must agree bit for bit
/// (ids *and* distances) on every query, including antimeridian and
/// polar ones. `summary` labels the counterexample.
void check_spatial_index(std::span<const geo::GeoPoint> points,
                         std::span<const geo::GeoPoint> queries,
                         double radius_km, std::string_view summary);

/// serve::Oracle over a columnar store vs the full-scan
/// serve::ReferenceOracle: answers must be byte-identical for every
/// store build path (one-shot vs chunked appends, build threads 1 vs 8)
/// and every query fan-out (oracle threads 1 vs 8).
void check_oracle_vs_fullscan(const World& world,
                              const atlas::MeasurementDataset& dataset,
                              std::span<const serve::Query> queries);

/// save_snapshot → load_snapshot must reproduce the store exactly: the
/// loaded store (full and lazy, 1 and 8 rebuild threads) must answer an
/// arbitrary query batch byte-identically to the live store it was
/// saved from, its counters must survive, and a snapshot taken
/// mid-ingest — N rows saved, loaded, then M more appended — must
/// answer like the one-shot N+M build.
void check_snapshot_roundtrip(const World& world,
                              const atlas::MeasurementDataset& dataset,
                              std::span<const serve::Query> queries);

}  // namespace shears::check
