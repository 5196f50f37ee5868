// Serving front-end acceptance bench: an overloaded open-arrival
// session over the real store + oracle, on the front-end's simulated
// clock. The headline number is qps-under-SLO — the completed rate the
// admission machinery sustains while the p99 of answered requests stays
// inside the tail target — which is a *simulated* rate, deterministic
// for the configuration below; the wall-clock row measures how fast the
// simulator itself chews through the session (requests/s of real time).
//
// Gates (exit non-zero): the session must shed (the regime is ~8x
// overload by construction), the p99 of completed requests must meet
// the SLO, and the server must drain. The loopback half also records
// how far the FrontConfig service model (which admission and batch
// sizing predict with) is from each batch's measured wall time.
// Numbers land in the bench JSON (SHEARS_BENCH_JSON, default
// BENCH_serve.json alongside bench_serve) — bench/run_benches.sh routes
// them to results/BENCH_serve.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "atlas/measurement.hpp"
#include "bench_common.hpp"
#include "front/server.hpp"
#include "front/traffic.hpp"
#include "front/transport/loopback.hpp"
#include "front/transport/socket_server.hpp"
#include "obs/metrics.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"

namespace {

using namespace shears;
using clock_type = std::chrono::steady_clock;

/// The peak-load regime of scenarios/serving_peak_load.ini and the
/// overload soak: 100 us + 200 us/query against 40 kqps offered, 3 ms
/// deadlines, retry backoffs sized so deadline + worst-case backoffs
/// stay under the 5 ms SLO.
front::FrontConfig peak_front_config() {
  front::FrontConfig config;
  config.queue_capacity = 256;
  config.max_batch = 64;
  config.batch_overhead_us = 100;
  config.per_query_us = 200;
  config.client_rate_qps = 2000;
  config.client_burst = 16;
  return config;
}

front::TrafficConfig peak_traffic_config() {
  front::TrafficConfig config;
  config.arrival = front::ArrivalMode::kOpen;
  config.clients = 64;
  config.offered_qps = 40'000;
  config.zipf_exponent = 1.1;
  config.duration_us = 1'000'000;  // one simulated second of peak
  config.slo_ms = 5.0;
  config.seed = 2020;
  config.client.deadline_us = 3000;
  config.client.max_retries = 2;
  config.client.backoff_base_us = 500;
  config.client.backoff_cap_us = 1000;
  return config;
}

/// The loopback regime: closed-loop clients hammering over real TCP
/// with per-client token buckets set well below the offered rate, so
/// the bucket (not the oracle) is the bottleneck — sheds must engage
/// while the completed rate stays at the buckets' allowance. The
/// qps-under-SLO row therefore reads the 8 × 500 qps buckets, not the
/// server's capacity; the latency rows are what the serving loop moves.
front::FrontConfig loopback_front_config() {
  front::FrontConfig config;
  config.client_rate_qps = 500;
  config.client_burst = 16;
  return config;
}

front::LoopbackConfig loopback_traffic_config() {
  front::LoopbackConfig config;
  config.clients = 8;
  config.requests_per_client = 500;
  config.slo_ms = 5.0;
  config.seed = 2020;
  config.client.max_retries = 3;
  config.client.backoff_base_us = 500;
  config.client.backoff_cap_us = 2'000;
  return config;
}

/// Runs the socket-transport half of the bench; returns 0 when its
/// gates hold (or sockets are unavailable and the section is skipped).
int run_loopback_bench(const serve::Oracle& oracle,
                       serve::ColumnarStore& store,
                       const std::vector<serve::Query>& corpus) {
  if (!front::sockets_available()) {
    std::printf("\nSKIP: loopback sockets unavailable in this sandbox; "
                "socket-transport gates not evaluated\n");
    return 0;
  }
  front::FrontServer server(&oracle, &store, loopback_front_config());
  obs::MetricsRegistry metrics;
  server.attach_metrics(&metrics);
  front::LoopbackConfig config = loopback_traffic_config();
  // Wall-clock tail target; overridable for instrumented (sanitizer)
  // or constrained runners where real latencies stretch.
  if (const char* env = std::getenv("SHEARS_LOOPBACK_SLO_MS")) {
    config.slo_ms = std::atof(env);
  }
  const front::LoopbackReport report =
      front::run_loopback(server, corpus, config);

  const std::uint64_t shed = report.server.shed_queue_full +
                             report.server.shed_deadline +
                             report.server.shed_throttled;
  bench::bench_record_value("front_loopback_qps_under_slo",
                            report.slo_met ? report.qps : 0.0);
  bench::bench_record_value("front_loopback_p99_ms", report.p99_ms);
  bench::bench_record_value(
      "front_loopback_shed_fraction",
      report.server.requests > 0
          ? static_cast<double>(shed) /
                static_cast<double>(report.server.requests)
          : 0.0);
  // Predicted (batch_overhead_us + n * per_query_us) minus measured
  // batch time: evidence for fitting the model, not a gate.
  const obs::LatencyHistogram::Summary cost_error =
      metrics.histogram("front.batch_cost_error_ms").summary();
  bench::bench_record_value("front_loopback_cost_pred_err_p50_us",
                            cost_error.p50_ms * 1e3);
  bench::bench_record_value("front_loopback_cost_pred_err_p99_us",
                            cost_error.p99_ms * 1e3);

  std::printf("\nloopback sockets: offered %llu (retries %llu), completed "
              "%llu, shed %llu, failed %llu in %.1f ms\n",
              static_cast<unsigned long long>(report.offered),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(report.failed),
              report.duration_ms);
  std::printf("loopback latency p50/p95/p99: %.3f / %.3f / %.3f ms  "
              "(SLO %.1f ms), qps %.0f\n",
              report.p50_ms, report.p95_ms, report.p99_ms, report.slo_ms,
              report.qps);
  std::printf("batch cost model error (predicted - measured) p50/p99: "
              "%.1f / %.1f us over %llu batches\n",
              cost_error.p50_ms * 1e3, cost_error.p99_ms * 1e3,
              static_cast<unsigned long long>(cost_error.count));
  std::printf("transport: %llu accepted, %llu KiB in, %llu KiB out, "
              "%llu partial writes\n",
              static_cast<unsigned long long>(report.transport.accepted),
              static_cast<unsigned long long>(report.transport.bytes_in >> 10),
              static_cast<unsigned long long>(report.transport.bytes_out >>
                                              10),
              static_cast<unsigned long long>(
                  report.transport.partial_writes));

  // Wall-clock gates are environment-sensitive; the floor is overridable
  // for constrained CI runners (simulated gates above are not).
  double gate_qps = 1'000.0;
  if (const char* env = std::getenv("SHEARS_LOOPBACK_GATE_QPS")) {
    gate_qps = std::atof(env);
  }
  if (shed == 0) {
    std::printf("FAIL: loopback overload produced no shedding\n");
    return 1;
  }
  if (!report.slo_met || report.qps < gate_qps) {
    std::printf("FAIL: loopback sustained %.0f qps (p99 %.3f ms) against "
                "gate %.0f qps under %.1f ms\n",
                report.qps, report.p99_ms, gate_qps, report.slo_ms);
    return 1;
  }
  if (!report.drained) {
    std::printf("FAIL: transport did not drain after the session\n");
    return 1;
  }
  std::printf("loopback gates met: >=%.0f qps under SLO over real sockets, "
              "shed under overload, clean drain\n",
              gate_qps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_title(
      "serving front-end: admission control under 8x overload",
      "p99 of answered requests inside the SLO while the excess is shed");

  auto campaign = bench::make_standard_campaign(argc, argv);
  campaign.bench_name = "front_campaign";
  const atlas::MeasurementDataset dataset = campaign.run();

  serve::ColumnarStore store =
      serve::ColumnarStore::build(dataset, serve::StoreConfig{0});
  const serve::Oracle oracle(&store, serve::OracleConfig{});
  front::FrontServer server(&oracle, &store, peak_front_config());
  const std::vector<serve::Query> corpus =
      front::make_corpus(dataset.fleet(), 4096);

  const front::TrafficConfig traffic = peak_traffic_config();
  const auto start = clock_type::now();
  const front::TrafficReport report =
      front::run_traffic(server, corpus, traffic);
  const double wall_s =
      std::chrono::duration<double>(clock_type::now() - start).count();

  const std::uint64_t shed = report.server.shed_queue_full +
                             report.server.shed_deadline +
                             report.server.shed_throttled;
  // Simulated session throughput vs how fast the simulator ran it.
  bench::bench_record("front_session", wall_s,
                      static_cast<double>(report.sent));
  bench::bench_record_value("front_qps_under_slo",
                            report.slo_met ? report.qps : 0.0);
  bench::bench_record_value("front_p99_ms", report.p99_ms);
  // Fraction of request *attempts* (retries included) the admission
  // machinery turned away.
  bench::bench_record_value(
      "front_shed_fraction",
      report.server.requests > 0
          ? static_cast<double>(shed) /
                static_cast<double>(report.server.requests)
          : 0.0);

  std::printf("offered %llu (retries %llu), completed %llu, shed %llu, "
              "failed %llu\n",
              static_cast<unsigned long long>(report.offered),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(report.failed));
  std::printf("latency p50/p95/p99: %.3f / %.3f / %.3f ms  (SLO %.1f ms)\n",
              report.p50_ms, report.p95_ms, report.p99_ms, report.slo_ms);
  std::printf("qps under SLO: %.0f  (simulated; wall %.3f s, %.0f req/s "
              "simulated per real second)\n",
              report.qps, wall_s,
              wall_s > 0.0 ? static_cast<double>(report.sent) / wall_s : 0.0);

  if (shed == 0) {
    std::printf("FAIL: overload regime produced no shedding\n");
    return 1;
  }
  if (!report.slo_met) {
    std::printf("FAIL: p99 %.3f ms misses the %.1f ms SLO\n", report.p99_ms,
                report.slo_ms);
    return 1;
  }
  if (!report.drained) {
    std::printf("FAIL: server did not drain after the session\n");
    return 1;
  }
  std::printf("front-end gates met: shed under overload, tail inside SLO, "
              "clean drain\n");

  return run_loopback_bench(oracle, store, corpus);
}
