// perfbench_selftest — shows that every output check of the benchmark
// accepts a genuine output and rejects a corrupted copy of it: a dropped
// row, a perturbed answer, a wrong objective, a flipped byte in a
// recovered image, and so on. Runs on a small world (400 probes, four
// days) in a few seconds. Exit code 0 only when every expectation holds.
//
//   perfbench_selftest [scratch-dir]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "checks.hpp"
#include "front/frame.hpp"
#include "front/traffic.hpp"
#include "opt/candidates.hpp"
#include "opt/overlay.hpp"
#include "opt/search.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(const std::string& name, const std::string& why, bool should_pass) {
  const bool passed = why.empty();
  const bool right = passed == should_pass;
  std::cout << (right ? "ok   " : "FAIL ") << name << ": "
            << (passed ? "accepted" : "rejected (" + why + ")") << '\n';
  if (!right) ++failures;
}

void genuine(const std::string& name, const std::string& why) {
  expect("genuine " + name, why, true);
}
void corrupted(const std::string& name, const std::string& why) {
  expect("corrupted " + name, why, false);
}

front::FrameDecoder::Item one_frame(const std::vector<std::uint8_t>& bytes) {
  front::FrameDecoder decoder;
  decoder.feed(bytes);
  return decoder.next();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".bench_build/tmp/selftest";
  std::filesystem::create_directories(dir);
  const std::unique_ptr<World> world = make_world(20200, 400);
  const World& w = *world;
  const atlas::Campaign campaign(w.fleet, w.cloud, w.model,
                                 campaign_config(7, 4));
  const atlas::MeasurementDataset dataset = campaign.run();
  const std::vector<atlas::Measurement> records(dataset.records().begin(),
                                                dataset.records().end());

  // --- reproduce_270d ---------------------------------------------------
  core::AnalysisOptions options;
  options.threads = bench_threads();
  std::vector<core::CountryMinLatency> rows =
      core::country_min_latency(dataset, options);
  genuine("record count", check_record_count(dataset.size(), w.fleet.size(),
                                             campaign.tick_count()));
  corrupted("record count (one row dropped)",
            check_record_count(dataset.size() - 1, w.fleet.size(),
                               campaign.tick_count()));
  genuine("country minimum", check_country_min(dataset, rows));
  {
    auto bad = rows;
    bad[bad.size() / 2].min_rtt_ms += 0.5;
    corrupted("country minimum (perturbed)", check_country_min(dataset, bad));
    bad = rows;
    bad.pop_back();
    corrupted("country minimum (country dropped)",
              check_country_min(dataset, bad));
  }
  core::LatencyBands bands = core::band_country_latencies(rows);
  genuine("bands", check_bands(bands, rows.size()));
  bands.over_100 += 1;
  corrupted("bands (one extra)", check_bands(bands, rows.size()));
  core::PopulationCoverage coverage = core::population_coverage(rows);
  genuine("population", check_population(coverage));
  std::swap(coverage.under_mtp, coverage.under_hrt);
  corrupted("population (MTP and HRT swapped)", check_population(coverage));
  genuine("rtt floor", check_rtt_floor(dataset));
  {
    std::vector<atlas::Measurement> bad = records;
    for (atlas::Measurement& m : bad) {
      if (m.received != 0 && m.min_ms > 50.0f) {
        m.min_ms = 0.5f;  // faster than light over that distance
        break;
      }
    }
    const atlas::MeasurementDataset below(&w.fleet, &w.cloud, std::move(bad));
    corrupted("rtt floor (one RTT below light)", check_rtt_floor(below));
  }

  // --- serve_loopback ---------------------------------------------------
  serve::StoreConfig config;
  config.threads = bench_threads();
  serve::ColumnarStore store = serve::ColumnarStore::build(dataset, config);
  serve::OracleConfig oracle_config;
  oracle_config.threads = 1;
  const serve::Oracle oracle(static_cast<const serve::ColumnarStore*>(&store),
                             oracle_config);
  const std::vector<serve::Query> corpus = front::make_corpus(w.fleet, 64);
  const serve::ReferenceOracle reference(&dataset, oracle_config);
  {
    const serve::Answer answer = oracle.answer_one(corpus[0]);
    const front::Response expected =
        front::make_response(0, answer, w.cloud);
    front::Response served = expected;
    served.request_id = 42;
    std::vector<std::uint8_t> bytes;
    front::append_response_frame(bytes, served);
    auto item = one_frame(bytes);
    genuine("response", check_response(item.type, item.payload, 42, expected));
    corrupted("response (wrong request id)",
              check_response(item.type, item.payload, 43, expected));
    front::Response perturbed = served;
    perturbed.best_ms += 0.25;
    bytes.clear();
    front::append_response_frame(bytes, perturbed);
    item = one_frame(bytes);
    corrupted("response (perturbed answer)",
              check_response(item.type, item.payload, 42, expected));
    bytes.clear();
    front::append_error_frame(
        bytes, front::Error{42, front::ErrorCode::kOverloaded, "queue full"});
    item = one_frame(bytes);
    corrupted("response (refused)",
              check_response(item.type, item.payload, 42, expected));
    item = one_frame(bytes);
    item.payload.resize(item.payload.size() / 2);
    corrupted("response (truncated body)",
              check_response(front::FrameType::kResponse, item.payload, 42,
                             expected));

    genuine("reference", check_reference(answer,
                                         reference.answer_one(corpus[0])));
    serve::Answer off = answer;
    off.best_ms += 0.25;
    corrupted("reference (perturbed answer)",
              check_reference(off, reference.answer_one(corpus[0])));
  }
  {
    front::FrontStats stats;
    stats.answered = 10;
    genuine("no shed", check_no_shed(stats, 10));
    corrupted("no shed (one answer missing)", check_no_shed(stats, 11));
    stats.shed_throttled = 1;
    corrupted("no shed (one throttled)", check_no_shed(stats, 10));
  }

  // --- plan_whatif ------------------------------------------------------
  {
    opt::CandidateConfig candidates;
    candidates.max_cities_per_country = 1;
    opt::SearchConfig search;
    search.threshold_ms = 50.0;
    search.max_sites = 4;
    search.threads = bench_threads();
    opt::OverlayConfig overlay;
    overlay.threads = bench_threads();
    const opt::FootprintSearch engine(
        &store, opt::generate_candidates(candidates), search, overlay);
    const opt::FootprintPlan plan = engine.plan();
    const serve::ColumnarStore rebuilt =
        engine.evaluator().rebuild_reference(engine.delta_for(plan.sites));
    genuine("plan steps", check_plan_steps(plan));
    genuine("plan objective", check_plan_objective(plan, rebuilt, 50.0));
    opt::FootprintPlan bad = plan;
    bad.objective += 1e-3;
    corrupted("plan objective (wrong objective)",
              check_plan_objective(bad, rebuilt, 50.0));
    bad = plan;
    if (!bad.coverage.countries.empty()) bad.coverage.countries[0].covered += 1;
    corrupted("plan objective (wrong country count)",
              check_plan_objective(bad, rebuilt, 50.0));
    bad = plan;
    if (!bad.steps.empty()) bad.steps.back().objective = plan.base_objective - 0.01;
    corrupted("plan steps (objective falls)", check_plan_steps(bad));
    bad = plan;
    bad.objective = 1.5;
    corrupted("plan steps (objective above 1)", check_plan_steps(bad));

    const std::vector<double> rising = {0.1, 0.2, 0.2, 0.4};
    genuine("coverage monotone", check_coverage_monotone(rising));
    const std::vector<double> falling = {0.1, 0.2, 0.19, 0.4};
    corrupted("coverage monotone (falls)", check_coverage_monotone(falling));

    const opt::OverlayEvaluator& ev = engine.evaluator();
    const opt::OverlayView identity = ev.evaluate(opt::ScenarioDelta{});
    std::vector<serve::Answer> base(corpus.size());
    std::vector<serve::Answer> over(corpus.size());
    oracle.answer(corpus, base);
    oracle.answer(corpus, over, &identity);
    genuine("identity", check_identity(identity.affected_cells(), over, base));
    corrupted("identity (one cell affected)", check_identity(1, over, base));
    over[3].best_ms += 0.25;
    corrupted("identity (perturbed answer)",
              check_identity(identity.affected_cells(), over, base));
  }

  // --- ingest_recover ---------------------------------------------------
  {
    const std::size_t eligible = eligible_rows(w.fleet, records);
    genuine("rows", check_rows(store.rows_stored(), eligible));
    corrupted("rows (one row dropped)",
              check_rows(store.rows_stored() - 1, eligible));

    serve::Query q;
    q.kind = serve::QueryKind::kBestRtt;
    q.country_iso2 = rows[0].country->iso2;
    const std::vector<serve::Answer> got = oracle.answer(std::span(&q, 1));
    const std::vector<double> want = {rows[0].min_rtt_ms};
    genuine("best rtt", check_best_rtt(got, want));
    const std::vector<double> off = {rows[0].min_rtt_ms + 0.25};
    corrupted("best rtt (perturbed)", check_best_rtt(got, off));

    const std::string live = dir + "/live.snap";
    const std::string copy = dir + "/recovered.snap";
    serve::save_snapshot(store, live);
    serve::save_snapshot(store, copy);
    genuine("image", check_image_files(live, copy));
    {
      std::fstream f(copy, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(
          std::filesystem::file_size(copy) / 2));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(
          std::filesystem::file_size(copy) / 2));
      f.put(static_cast<char>(byte ^ 0x01));
    }
    corrupted("image (flipped byte)", check_image_files(live, copy));
    serve::save_snapshot(store, copy);
    std::filesystem::resize_file(copy, std::filesystem::file_size(live) - 1);
    corrupted("image (truncated)", check_image_files(live, copy));

    std::vector<serve::Answer> a = oracle.answer(corpus);
    const std::vector<serve::Answer> b = a;
    genuine("answers", check_answers(a, b));
    a[5].median_ms += 0.25;
    corrupted("answers (perturbed)", check_answers(a, b));
  }

  std::filesystem::remove_all(dir);
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << " (" << failures << " wrong)\n";
  return failures == 0 ? 0 : 1;
}
