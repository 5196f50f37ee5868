// Output checkers of the four workloads. Each returns an empty string
// when the output passes and a one-line reason when it does not.
//
// Every check compares against a computation made here, apart from the
// program, or against a property the method must have; none compares
// against a stored copy of an earlier output. They are plain functions
// of the outputs so the self-test (selftest.cpp) can hand them corrupted
// copies and see each one fail.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atlas/measurement.hpp"
#include "core/analysis.hpp"
#include "front/frame.hpp"
#include "front/server.hpp"
#include "opt/search.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"

namespace perfbench {

// The program's modules by their own names: atlas::, serve::, opt::, ...
using namespace shears;

// --- reproduce_270d ---------------------------------------------------

/// records == probes × ticks (every probe online at every tick).
[[nodiscard]] std::string check_record_count(std::size_t records,
                                             std::size_t probes,
                                             std::size_t ticks);

/// Recounts every country's minimum from the raw records with a plain
/// sequential loop and compares it with core::country_min_latency.
[[nodiscard]] std::string check_country_min(
    const atlas::MeasurementDataset& dataset,
    std::span<const core::CountryMinLatency> rows);

/// The five latency bands partition the countries.
[[nodiscard]] std::string check_bands(const core::LatencyBands& bands,
                                      std::size_t countries);

/// Population coverage is nested: MTP <= PL <= HRT, all within [0, 1].
[[nodiscard]] std::string check_population(
    const core::PopulationCoverage& coverage);

/// Every delivered burst's minimum RTT is at least the round trip of
/// light in fibre over the great circle between probe and region.
[[nodiscard]] std::string check_rtt_floor(
    const atlas::MeasurementDataset& dataset);

// --- serve_loopback ---------------------------------------------------

/// One response frame: it decodes, carries the request id, and equals the
/// answer computed in-process before the timed phase.
[[nodiscard]] std::string check_response(front::FrameType type,
                                         std::span<const std::uint8_t> payload,
                                         std::uint64_t request_id,
                                         const front::Response& expected);

/// The indexed oracle agrees with the sequential full-scan reference.
[[nodiscard]] std::string check_reference(const serve::Answer& oracle,
                                          const serve::Answer& reference);

/// With token buckets off, nothing is shed, expired or refused.
[[nodiscard]] std::string check_no_shed(const front::FrontStats& stats,
                                        std::uint64_t sent);

// --- plan_whatif ------------------------------------------------------

/// The objective never falls across the greedy steps and stays within
/// [base, 1].
[[nodiscard]] std::string check_plan_steps(const opt::FootprintPlan& plan);

/// Recounts coverage with a plain loop over the columns of the store
/// rebuilt with the plan's delta applied, and compares it with the plan's
/// per-country counts and final objective.
[[nodiscard]] std::string check_plan_objective(
    const opt::FootprintPlan& plan, const serve::ColumnarStore& rebuilt,
    double threshold_ms);

/// Coverage never falls as wireless_scale falls (fractions in sweep
/// order, scale descending).
[[nodiscard]] std::string check_coverage_monotone(
    std::span<const double> fractions);

/// The identity delta affects no cell and answers like the base store.
[[nodiscard]] std::string check_identity(
    std::size_t affected_cells, std::span<const serve::Answer> overlay,
    std::span<const serve::Answer> base);

// --- ingest_recover ---------------------------------------------------

[[nodiscard]] std::string check_rows(std::size_t stored,
                                     std::size_t expected);

/// Best-RTT answers for fixed countries equal the minima recomputed from
/// the published rows.
[[nodiscard]] std::string check_best_rtt(std::span<const serve::Answer> got,
                                         std::span<const double> expected_ms);

/// The recovered store saved to the same image as the live store, byte
/// for byte (both saved to files, compared in chunks).
[[nodiscard]] std::string check_image_files(const std::string& live,
                                            const std::string& recovered);

/// Two answer lists are identical.
[[nodiscard]] std::string check_answers(std::span<const serve::Answer> got,
                                        std::span<const serve::Answer> want);

/// Rows a store keeps from a batch: delivered bursts of non-privileged
/// probes (the benchmark's own count of what should become queryable).
[[nodiscard]] std::size_t eligible_rows(
    const atlas::ProbeFleet& fleet, std::span<const atlas::Measurement> rows);

}  // namespace perfbench
