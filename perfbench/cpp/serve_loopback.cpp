// serve_loopback — the socket-served oracle under a closed loop. Set-up:
// campaign → ColumnarStore → save_snapshot → lazy mmap load_snapshot (a
// warm start) → Oracle (1 thread) → FrontServer with token buckets off →
// SocketServer on 127.0.0.1, ephemeral port. Run: three client
// connections in this process, each sending its next request only after
// it holds the previous response; requests are drawn zipf-skewed from
// front::make_corpus. The main thread drives SocketServer::poll itself.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "front/frame.hpp"
#include "front/server.hpp"
#include "front/traffic.hpp"
#include "front/transport/blocking_client.hpp"
#include "front/transport/clock.hpp"
#include "front/transport/socket_server.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

namespace {

constexpr int kDays = 270;
constexpr std::size_t kCorpus = 4096;
constexpr unsigned kClients = 3;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kReferenceSample = 24;
constexpr int kRecvTimeoutMs = 2000;

struct State {
  std::unique_ptr<World> world;
  std::unique_ptr<atlas::MeasurementDataset> dataset;  ///< for the reference
  std::unique_ptr<serve::ColumnarStore> store;
  std::unique_ptr<serve::Oracle> oracle;
  std::unique_ptr<front::FrontServer> front;
  std::unique_ptr<front::MonotonicClock> clock;
  std::unique_ptr<front::SocketServer> socket;  ///< destroyed first
  std::uint16_t port = 0;
  std::vector<serve::Query> corpus;
  double setup_s = 0.0;
};

// `s0` is when this set-up began (process start for the first one). The
// campaign records stay in `dataset` for the reference check.
State set_up(Run& run, Clock::time_point s0) {
  Trace& t = run.trace;
  State s;
  s.world = make_world(run.seeds.fleet);
  const World& w = *s.world;
  serve::StoreConfig config;
  config.threads = bench_threads();
  const std::string path = run.tmp_dir + "/serve.snap";
  {
    atlas::Campaign campaign(w.fleet, w.cloud, w.model,
                             campaign_config(run.seeds.campaign, kDays));
    s.dataset = std::make_unique<atlas::MeasurementDataset>(
        run_campaign(t, campaign));
    serve::ColumnarStore built(&w.fleet, &w.cloud, config);
    t.call("store.append_s", [&] { built.append(s.dataset->records()); });
    t.sample("store.append_rows", static_cast<double>(s.dataset->size()));
    t.call("store.refresh_s", [&] { built.refresh(); });
    t.sample("store.refresh_calls", 1);
    t.call("snapshot.save_s", [&] { serve::save_snapshot(built, path); });
    t.sample("snapshot.bytes",
             static_cast<double>(std::filesystem::file_size(path)));
  }

  serve::SnapshotLoadOptions load;
  load.mmap = true;
  load.lazy_summaries = true;
  s.store = t.call("snapshot.load_s", [&] {
    return std::make_unique<serve::ColumnarStore>(
        serve::load_snapshot(path, &w.fleet, &w.cloud, config, load));
  });
  t.call("store.refresh_s", [&] { s.store->refresh(); });
  t.sample("store.refresh_calls", 1);
  serve::OracleConfig oracle;
  oracle.threads = 1;
  s.oracle = std::make_unique<serve::Oracle>(
      static_cast<const serve::ColumnarStore*>(s.store.get()), oracle);
  front::FrontConfig front_config;
  front_config.client_rate_qps = 0;  // token buckets off
  s.front = std::make_unique<front::FrontServer>(s.oracle.get(), s.store.get(),
                                                 front_config);
  s.clock = std::make_unique<front::MonotonicClock>();
  s.socket = std::make_unique<front::SocketServer>(s.front.get(),
                                                   s.clock.get());
  s.port = s.socket->listen();
  s.corpus = front::make_corpus(w.fleet, kCorpus);
  s.setup_s = seconds_since(s0);
  return s;
}

// A seeded sample of distinct corpus queries answered by the full-scan
// reference over the campaign records; "" when all match the oracle.
std::string check_reference_sample(const State& s, std::uint64_t seed) {
  serve::OracleConfig one;
  one.threads = 1;
  const serve::ReferenceOracle reference(s.dataset.get(), one);
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> picks(kCorpus);
  for (std::size_t i = 0; i < kCorpus; ++i) picks[i] = i;
  for (std::size_t i = 0; i < kReferenceSample; ++i) {
    std::swap(picks[i], picks[i + rng() % (kCorpus - i)]);
    const serve::Query& q = s.corpus[picks[i]];
    std::string why =
        check_reference(s.oracle->answer_one(q), reference.answer_one(q));
    if (!why.empty()) return why;
  }
  return "";
}

front::Request request_of(const serve::Query& q) {
  front::Request r;
  r.kind = q.kind;
  r.lat_deg = q.where.lat_deg;
  r.lon_deg = q.where.lon_deg;
  r.country_iso2 = std::string(q.country_iso2);
  r.access = q.access;
  r.any_access = q.any_access;
  r.app_id = std::string(q.app_id);
  r.budget_ms = q.budget_ms;
  r.k = q.k;
  return r;
}

// Zipf over corpus ranks; the rank → corpus index map is a seeded
// shuffle, so which queries are hot depends on the seed.
class ZipfDraw {
 public:
  ZipfDraw(std::size_t n, double exponent, std::uint64_t seed)
      : cdf_(n), index_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < n; ++i) index_[i] = i;
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(index_[i], index_[rng() % (i + 1)]);
    }
  }
  [[nodiscard]] std::size_t operator()(std::mt19937_64& rng) const {
    const double u =
        static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return index_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> index_;
};

struct Sent {
  double at_us = 0.0;  ///< send time, for the in-process replay
  std::size_t index = 0;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<Sent> sent;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<Span> spans;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Shared {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<unsigned> done{0};
  Clock::time_point deadline{};
};

void client(unsigned id, const State& s, const ZipfDraw& zipf,
            const std::vector<front::Request>& templates,
            const std::vector<front::Response>& expected,
            std::uint64_t seed, Trace& trace, Shared& shared, ClientLog& log) {
  bool counted = false;  // the request in flight is already attempted
  try {
    front::BlockingClient sock;
    sock.connect(s.port);
    std::mt19937_64 rng(seed);
    front::FrameDecoder decoder;
    std::vector<std::uint8_t> frame;
    const bool traced = trace.on();
    shared.ready.fetch_add(1);
    while (!shared.go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::uint64_t next_id = static_cast<std::uint64_t>(id) << 40;
    while (Clock::now() < shared.deadline) {
      const std::size_t index = zipf(rng);
      front::Request request = templates[index];
      request.request_id = ++next_id;
      request.client_id = id;
      ++log.attempted;
      counted = true;

      const Clock::time_point t0 = Clock::now();
      frame.clear();
      front::append_request_frame(frame, request);
      const Clock::time_point t1 = Clock::now();
      sock.send(frame);

      front::FrameDecoder::Item item;
      Clock::time_point t2 = t1;
      while (item.status != front::DecodeStatus::kFrame) {
        const std::vector<std::uint8_t> raw = sock.recv_some(kRecvTimeoutMs);
        if (raw.empty()) {
          throw front::TransportError(sock.eof() ? "server closed"
                                                 : "response timed out");
        }
        t2 = Clock::now();
        decoder.feed(raw);
        item = decoder.next();
        if (item.status != front::DecodeStatus::kFrame &&
            item.status != front::DecodeStatus::kNeedMore) {
          throw front::TransportError("undecodable response frame");
        }
      }
      // Decoded here so the client's latency includes it; the check below
      // decodes again, outside the latency, to report what is wrong.
      front::Response decoded;
      if (item.type == front::FrameType::kResponse) {
        (void)front::decode_response(item.payload, decoded);
      }
      const Clock::time_point t3 = Clock::now();

      log.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(t3 - t0).count());
      if (traced) {
        const double us0 = trace.us_at(t0);
        log.sent.push_back({us0, index});
        log.encode_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        log.decode_us.push_back(
            std::chrono::duration<double, std::micro>(t3 - t2).count());
        const std::uint64_t root = trace.next_id();
        const std::uint64_t rid = request.request_id;
        log.spans.push_back({root, 0, rid, "request", us0, trace.us_at(t3)});
        log.spans.push_back({trace.next_id(), root, rid, "frame.encode", us0,
                             trace.us_at(t1)});
        log.spans.push_back({trace.next_id(), root, rid, "wait",
                             trace.us_at(t1), trace.us_at(t2)});
        log.spans.push_back({trace.next_id(), root, rid, "frame.decode",
                             trace.us_at(t2), trace.us_at(t3)});
      }
      const std::string why = check_response(item.type, item.payload,
                                             request.request_id,
                                             expected[index]);
      if (!why.empty()) {
        ++log.failed;
        if (log.failures.size() < 4) log.failures.push_back(why);
      }
      counted = false;
    }
    sock.close();
  } catch (const std::exception& e) {
    if (!counted) ++log.attempted;
    ++log.failed;
    log.failures.push_back(std::string("client: ") + e.what());
    shared.ready.fetch_add(1);  // never leave the main thread waiting
  }
  shared.done.fetch_add(1);
}

}  // namespace

void run_serve_loopback(Run& run, Clock::time_point process_start) {
  std::vector<double> setups;
  Clock::time_point s0 = process_start;
  State state;
  for (int i = 0; i < kSetups; ++i) {
    state = State{};
    state = set_up(run, s0);
    setups.push_back(state.setup_s);
    s0 = Clock::now();
  }
  run.op(check_reference_sample(state, run.seeds.traffic ^ 0x5EEDull));
  state.dataset.reset();
  Trace& t = run.trace;
  const topology::CloudRegistry& cloud = state.world->cloud;

  // Expected answers, computed in-process before the timed phase.
  std::vector<front::Request> templates;
  std::vector<front::Response> expected;
  for (const serve::Query& q : state.corpus) {
    templates.push_back(request_of(q));
    expected.push_back(
        front::make_response(0, state.oracle->answer_one(q), cloud));
  }
  const ZipfDraw zipf(kCorpus, kZipfExponent, run.seeds.traffic);

  Shared shared;
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back(client, c + 1, std::cref(state), std::cref(zipf),
                         std::cref(templates), std::cref(expected),
                         run.seeds.traffic + 0x100 * (c + 1), std::ref(t),
                         std::ref(shared), std::ref(logs[c]));
  }

  front::SocketServer& socket = *state.socket;
  std::uint64_t polls = 0;
  std::uint64_t timeouts = 0;
  double idle_s = 0.0;
  std::vector<Span> poll_spans;
  const auto poll = [&] {
    if (!t.on()) {
      (void)socket.poll(100'000);
      return;
    }
    const Clock::time_point p0 = Clock::now();
    const int events = socket.poll(100'000);
    const Clock::time_point p1 = Clock::now();
    ++polls;
    if (events == 0) {
      ++timeouts;
      idle_s += std::chrono::duration<double>(p1 - p0).count();
    }
    poll_spans.push_back(
        {t.next_id(), 0, 0, "transport.poll", t.us_at(p0), t.us_at(p1)});
  };

  // Accept every connection before the clock starts.
  const Clock::time_point accept_limit = Clock::now() + std::chrono::seconds(10);
  while ((shared.ready.load() < kClients ||
          socket.connection_count() < kClients - shared.done.load()) &&
         Clock::now() < accept_limit) {
    poll();
  }
  const Clock::time_point start = Clock::now();
  shared.deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(run.seconds));
  shared.go.store(true, std::memory_order_release);
  while (shared.done.load() < kClients) poll();
  const double loop_s = seconds_since(start);
  for (std::thread& th : threads) th.join();
  // Let the server see every close.
  const Clock::time_point close_limit = Clock::now() + std::chrono::seconds(5);
  while (socket.connection_count() > 0 && Clock::now() < close_limit) poll();

  std::vector<double> latencies;
  std::vector<Sent> sent;
  std::uint64_t responses = 0;
  std::uint64_t requests = 0;
  for (ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latency_ms.begin(),
                     log.latency_ms.end());
    sent.insert(sent.end(), log.sent.begin(), log.sent.end());
    responses += log.latency_ms.size();
    requests += log.attempted;
    run.attempted += log.attempted;
    run.failed += log.failed;
    for (std::string& f : log.failures) {
      if (run.failures.size() < 8) run.failures.push_back(std::move(f));
    }
    for (double v : log.encode_us) t.sample("frame.encode_us", v);
    for (double v : log.decode_us) t.sample("frame.decode_us", v);
    t.add_spans(std::move(log.spans));
  }
  t.add_spans(std::move(poll_spans));
  const front::FrontStats& fs = state.front->stats();
  run.op(check_no_shed(fs, responses));

  const front::TransportStats& ts = socket.stats();
  if (t.on()) {
    t.sample("front.batches", static_cast<double>(fs.batches));
    const double per_batch =
        fs.batches > 0 ? static_cast<double>(fs.answered) /
                             static_cast<double>(fs.batches)
                       : 0.0;
    t.sample("front.queries_per_batch", per_batch);
    t.sample("front.max_queue_depth", static_cast<double>(fs.max_queue_depth));
    t.sample("front.shed",
             static_cast<double>(fs.shed_queue_full + fs.shed_deadline +
                                 fs.shed_throttled + fs.expired_in_queue +
                                 fs.expired_served));
    t.sample("transport.polls", static_cast<double>(polls));
    t.sample("transport.poll_timeouts", static_cast<double>(timeouts));
    t.sample("transport.poll_idle_s", idle_s);
    t.sample("transport.bytes_in", static_cast<double>(ts.bytes_in));
    t.sample("transport.bytes_out", static_cast<double>(ts.bytes_out));
    t.sample("transport.partial_writes",
             static_cast<double>(ts.partial_writes));

    // The served sequence replayed in-process at the mean batch size the
    // front end formed: the oracle's share of one served request.
    std::sort(sent.begin(), sent.end(),
              [](const Sent& a, const Sent& b) { return a.at_us < b.at_us; });
    const std::size_t batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(per_batch)));
    std::vector<serve::Query> queries;
    std::vector<serve::Answer> answers;
    double replay_s = 0.0;
    for (std::size_t i = 0; i < sent.size(); i += batch) {
      queries.clear();
      for (std::size_t j = i; j < std::min(sent.size(), i + batch); ++j) {
        queries.push_back(state.corpus[sent[j].index]);
      }
      answers.resize(queries.size());
      const Clock::time_point r0 = Clock::now();
      state.oracle->answer(queries, answers);
      replay_s += seconds_since(r0);
    }
    if (!sent.empty()) {
      t.sample("oracle.replay_s", replay_s / static_cast<double>(sent.size()));
    }
  }

  const double p50 = quantile(latencies, 0.50);
  std::ostringstream line;
  line.precision(5);
  line << "serve_qps = " << static_cast<double>(responses) / loop_s
       << " req/s, serve_p50_ms = " << p50 << " ms over " << responses
       << " responses (" << requests << " requests, " << kClients
       << " connections, " << loop_s << " s)\n"
       << "serving tail (not an end-to-end metric): p95 "
       << quantile(latencies, 0.95) << " ms, p99 " << quantile(latencies, 0.99)
       << " ms, " << latencies.size() << " samples; " << fs.batches
       << " batches";
  Run::say(line.str());
  report_common(run, setups);
  run.metric("op_ms", p50, "ms");
  run.metric("throughput_per_s", static_cast<double>(responses) / loop_s,
             "1/s");
}

}  // namespace perfbench
