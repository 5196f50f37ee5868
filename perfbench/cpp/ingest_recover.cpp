// ingest_recover — writes beside reads on the store, then recovery. Set-up:
// one 270-day campaign; its first 240 days go into a store saved as the
// base snapshot. Each round publishes the remaining 30 days one day at a
// time through DeltaLog::publish, each followed by ColumnarStore::refresh
// and one corpus batch through Oracle::answer; it ends with three
// recoveries (load_snapshot of the base, apply_delta_log, refresh, the
// first answered batch). The only workload that exercises the block-file
// log and recovery.
#include <filesystem>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "checks.hpp"
#include "front/traffic.hpp"
#include "geo/country.hpp"
#include "serve/oracle.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

namespace {

constexpr int kDays = 270;
constexpr int kBaseDays = 240;
constexpr std::size_t kCorpus = 4096;
constexpr int kRecoveries = 3;
constexpr std::size_t kCheckedCountries = 8;
// The timed phases (publish, refresh, query batches, recovery) run on one
// thread, for the reason given in plan_whatif.cpp: 4-thread phases swung
// 2-3x between runs on the shared machine, and one thread was as fast.
// The set-up builds the base store with bench_threads().
constexpr std::size_t kThreads = 1;

struct State {
  std::unique_ptr<World> world;
  std::vector<std::vector<atlas::Measurement>> days;  ///< the last 30
  std::vector<serve::Query> corpus;
  std::string base_path;
  double setup_s = 0.0;       ///< up to the check data below
  std::size_t base_rows = 0;  ///< the benchmark's own count
  // Check data: fixed countries and their minimum over the base rows.
  std::vector<serve::Query> checked;
  std::vector<double> checked_min;
};

// `s0` is when this set-up began (process start for the first one).
State set_up(Run& run, Clock::time_point s0) {
  Trace& t = run.trace;
  State s;
  s.world = make_world(run.seeds.fleet);
  const World& w = *s.world;
  atlas::Campaign campaign(w.fleet, w.cloud, w.model,
                           campaign_config(run.seeds.campaign, kDays));
  const atlas::MeasurementDataset dataset = run_campaign(t, campaign);

  // Day split by tick; records stay in dataset order within each part.
  const std::uint32_t ticks_per_day =
      campaign.tick_count() / static_cast<std::uint32_t>(kDays);
  const std::uint32_t base_ticks = ticks_per_day * kBaseDays;
  std::vector<atlas::Measurement> base;
  base.reserve(dataset.size());
  s.days.assign(kDays - kBaseDays, {});
  for (const atlas::Measurement& m : dataset.records()) {
    if (m.tick < base_ticks) {
      base.push_back(m);
    } else {
      s.days[(m.tick - base_ticks) / ticks_per_day].push_back(m);
    }
  }

  serve::StoreConfig config;
  config.threads = bench_threads();
  serve::ColumnarStore store(&w.fleet, &w.cloud, config);
  t.call("store.append_s", [&] { store.append(base); });
  t.sample("store.append_rows", static_cast<double>(base.size()));
  t.call("store.refresh_s", [&] { store.refresh(); });
  t.sample("store.refresh_calls", 1);
  s.base_path = run.tmp_dir + "/base.snap";
  t.call("snapshot.save_s", [&] { serve::save_snapshot(store, s.base_path); });
  t.sample("snapshot.bytes",
           static_cast<double>(std::filesystem::file_size(s.base_path)));
  s.corpus = front::make_corpus(w.fleet, kCorpus);
  s.setup_s = seconds_since(s0);

  // Check data, made after the set-up's clock stopped.
  s.base_rows = eligible_rows(w.fleet, base);
  const auto countries = geo::all_countries();
  std::vector<double> min_ms(countries.size(),
                             std::numeric_limits<double>::infinity());
  for (const atlas::Measurement& m : base) {
    const atlas::Probe& probe = w.fleet.probe(m.probe_id);
    if (m.received == 0 || probe.privileged()) continue;
    double& v = min_ms[static_cast<std::size_t>(probe.country -
                                                countries.data())];
    v = std::min<double>(v, m.min_ms);
  }
  // Every k-th country that holds data, the stride picked from the seed.
  std::vector<std::size_t> with_data;
  for (std::size_t c = 0; c < countries.size(); ++c) {
    if (min_ms[c] < std::numeric_limits<double>::infinity()) {
      with_data.push_back(c);
    }
  }
  const std::size_t stride = std::max<std::size_t>(
      1, with_data.size() / kCheckedCountries);
  for (std::size_t i = run.seeds.traffic % stride;
       i < with_data.size() && s.checked.size() < kCheckedCountries;
       i += stride) {
    serve::Query q;
    q.kind = serve::QueryKind::kBestRtt;
    q.country_iso2 = countries[with_data[i]].iso2;
    q.any_access = true;
    s.checked.push_back(q);
    s.checked_min.push_back(min_ms[with_data[i]]);
  }
  return s;
}

// Folds one day's rows into the checked countries' minima.
void fold_day(const State& s, std::span<const atlas::Measurement> rows,
              std::vector<double>& mins) {
  for (const atlas::Measurement& m : rows) {
    const atlas::Probe& probe = s.world->fleet.probe(m.probe_id);
    if (m.received == 0 || probe.privileged()) continue;
    for (std::size_t i = 0; i < s.checked.size(); ++i) {
      if (probe.country->iso2 == s.checked[i].country_iso2) {
        mins[i] = std::min<double>(mins[i], m.min_ms);
      }
    }
  }
}

struct Totals {
  std::vector<double> day_times;
  std::vector<double> recover_times;
  std::uint64_t rows_queryable = 0;
};

void round(Run& run, const State& s, Totals& totals) {
  Trace& t = run.trace;
  const World& w = *s.world;
  serve::StoreConfig config;
  config.threads = kThreads;
  serve::OracleConfig oracle_config;
  oracle_config.threads = kThreads;

  // Round preparation, untimed: the live store starts at the base.
  serve::ColumnarStore live =
      serve::load_snapshot(s.base_path, &w.fleet, &w.cloud, config);
  const serve::Oracle oracle(
      static_cast<const serve::ColumnarStore*>(&live), oracle_config);
  const std::string log_path = run.tmp_dir + "/delta.log";
  serve::DeltaLog log(&live, log_path);
  std::vector<double> mins = s.checked_min;
  std::size_t expected_rows = s.base_rows;
  std::vector<serve::Answer> answers(s.corpus.size());

  for (const std::vector<atlas::Measurement>& day : s.days) {
    const Clock::time_point t0 = Clock::now();
    t.call("deltalog.publish_s", [&] { log.publish(day); });
    t.call("store.refresh_s", [&] { live.refresh(); });
    const Clock::time_point b0 = Clock::now();
    t.call("oracle.batch_s", [&] { oracle.answer(s.corpus, answers); });
    const double batch_s = seconds_since(b0);
    totals.day_times.push_back(seconds_since(t0));
    t.sample("store.append_rows", static_cast<double>(day.size()));
    t.sample("store.refresh_calls", 1);
    t.sample("oracle.queries_per_s",
             static_cast<double>(s.corpus.size()) / batch_s);

    const std::size_t added = eligible_rows(w.fleet, day);
    expected_rows += added;
    totals.rows_queryable += added;
    fold_day(s, day, mins);
    std::string why = check_rows(live.rows_stored(), expected_rows);
    if (why.empty()) why = check_best_rtt(oracle.answer(s.checked), mins);
    run.op(why);
  }
  t.sample("deltalog.bytes",
           static_cast<double>(std::filesystem::file_size(log_path)));
  t.sample("deltalog.segments", static_cast<double>(log.segments()));
  const std::string live_image = run.tmp_dir + "/live.snap";
  serve::save_snapshot(live, live_image);

  for (int r = 0; r < kRecoveries; ++r) {
    const Clock::time_point t0 = Clock::now();
    serve::SnapshotLoadOptions load;
    load.mmap = true;
    load.lazy_summaries = true;
    serve::ColumnarStore recovered = t.call("snapshot.load_s", [&] {
      return serve::load_snapshot(s.base_path, &w.fleet, &w.cloud, config,
                                  load);
    });
    t.call("deltalog.apply_s",
           [&] { (void)serve::apply_delta_log(recovered, log_path); });
    t.call("store.refresh_s", [&] { recovered.refresh(); });
    const serve::Oracle restarted(
        static_cast<const serve::ColumnarStore*>(&recovered), oracle_config);
    std::vector<serve::Answer> first(s.corpus.size());
    t.call("oracle.batch_s", [&] { restarted.answer(s.corpus, first); });
    totals.recover_times.push_back(seconds_since(t0));
    t.sample("store.refresh_calls", 1);

    const std::string image = run.tmp_dir + "/recovered.snap";
    serve::save_snapshot(recovered, image);
    std::string why = check_image_files(live_image, image);
    if (why.empty()) why = check_answers(first, answers);
    run.op(why);
  }
}

}  // namespace

void run_ingest_recover(Run& run, Clock::time_point process_start) {
  std::vector<double> setups;
  Clock::time_point s0 = process_start;
  State state;
  for (int i = 0; i < kSetups; ++i) {
    state = State{};
    state = set_up(run, s0);
    setups.push_back(state.setup_s);
    s0 = Clock::now();
  }

  Totals totals;
  const Clock::time_point start = Clock::now();
  do {
    round(run, state, totals);
  } while (seconds_since(start) < run.seconds);

  double cycle_total = 0.0;
  for (double t : totals.day_times) cycle_total += t;
  const double rows_per_s =
      static_cast<double>(totals.rows_queryable) / cycle_total;
  std::ostringstream line;
  line.precision(5);
  line << "ingest_rows_per_s = " << rows_per_s << " rows/s over "
       << totals.day_times.size() << " daily cycles, recover_s = "
       << median(totals.recover_times) << " s (median of "
       << totals.recover_times.size() << ")";
  Run::say(line.str());
  report_common(run, setups);
  run.metric("op_ms", median(totals.recover_times) * 1e3, "ms");
  run.metric("throughput_per_s", rows_per_s, "1/s");
}

}  // namespace perfbench
