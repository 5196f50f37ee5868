// The serving front-end: a deterministic, simulated-clock session layer
// in front of serve::Oracle.
//
// The batched oracle answers microsecond queries, but only for callers
// already inside the process. This server gives it the shape of a
// network service — framed requests over per-connection byte buffers —
// and, more importantly, the failure behaviour of a production one:
//
//   * Admission control: a bounded queue. When it is full, or when the
//     projected queue wait already exceeds a request's deadline, the
//     request is shed *at the door* with a kOverloaded error frame —
//     cheap rejection instead of queueing work that will time out.
//   * Deadlines: each request carries an absolute sim-time deadline that
//     propagates into batch formation (earliest-deadline-first order,
//     linger cut short when the most urgent request would otherwise
//     miss) and into post-service delivery (a late answer degrades to a
//     kDeadlineExceeded error, never a silently stale success).
//   * Fairness: a per-client token bucket. One zipfian-hot client runs
//     out of tokens and gets kThrottled frames; everyone else's requests
//     still reach the queue.
//   * Staleness: when the store has unrefreshed live appends the server
//     refreshes and retries (OracleConfig::auto_refresh semantics)
//     instead of dying — the recoverable half of the kStale status.
//
// Determinism contract: the session layer runs on a simulated clock
// (integer microseconds) and a single logical event loop. Unless
// run_until is handed a wall clock, a batch's service time is a
// deterministic model (batch_overhead_us + per_query_us × n), so queue
// depths, shed counts and latency percentiles are byte-identical across
// machines and oracle thread counts — the soak test pins 1 vs 8
// threads. On a wall clock (the socket transport's MonotonicClock) a
// batch completes when the oracle actually returns, read from that
// clock; admission and EDF batch sizing still predict with the model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "front/frame.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"

namespace shears::obs {
class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace shears::obs

namespace shears::front {

class Clock;

struct FrontConfig {
  /// Bounded admission queue; arrivals beyond this shed kOverloaded.
  std::size_t queue_capacity = 1024;
  /// Per-client token bucket: sustained requests/s (0 = unlimited) and
  /// burst capacity in requests.
  std::uint32_t client_rate_qps = 0;
  std::uint32_t client_burst = 32;
  /// Batch formation: size cap, and how long a batch may linger open
  /// after its first request before service starts (deadline pressure
  /// cuts the linger short).
  std::size_t max_batch = 256;
  SimTime batch_linger_us = 0;
  /// Service-time model: a batch of n queries occupies the executor for
  /// batch_overhead_us + n * per_query_us. Admission and batch sizing
  /// always predict with it; completion follows it unless run_until is
  /// handed a wall clock.
  SimTime batch_overhead_us = 100;
  SimTime per_query_us = 2;
  /// Deadline stamped on requests that carry none; 0 = none.
  SimTime default_deadline_us = 0;

  /// Throws std::invalid_argument on zero capacity/batch/per-query cost.
  void validate() const;
};

/// Deterministic front-end telemetry. Every field is a pure function of
/// (config, traffic), so reports compare equal across thread counts.
struct FrontStats {
  std::uint64_t frames_in = 0;       ///< well-formed frames received
  std::uint64_t decode_errors = 0;   ///< per-frame decode failures
  std::uint64_t bad_requests = 0;    ///< frames whose body failed to parse
  std::uint64_t requests = 0;        ///< decoded request bodies
  std::uint64_t admitted = 0;        ///< entered the queue
  std::uint64_t answered = 0;        ///< response frames emitted
  std::uint64_t shed_queue_full = 0; ///< kOverloaded: queue at capacity
  std::uint64_t shed_deadline = 0;   ///< kOverloaded: wait exceeds deadline
  std::uint64_t shed_throttled = 0;  ///< kThrottled: token bucket empty
  std::uint64_t expired_in_queue = 0;///< kDeadlineExceeded before service
  std::uint64_t expired_served = 0;  ///< kDeadlineExceeded after service
  std::uint64_t stale_refreshes = 0; ///< store refreshed mid-session
  std::uint64_t batches = 0;
  std::uint64_t max_queue_depth = 0;

  friend bool operator==(const FrontStats&, const FrontStats&) = default;
};

using ConnId = std::uint32_t;

class FrontServer {
 public:
  /// `oracle` answers the queries; `store` (nullable) is the mutable
  /// columnar store behind it, enabling refresh-then-retry on staleness.
  /// Both must outlive the server.
  FrontServer(const serve::Oracle* oracle, serve::ColumnarStore* store,
              FrontConfig config = {});

  /// Opens a connection for a client; the id feeds the fairness bucket.
  /// Reuses the id of a connection released by disconnect().
  [[nodiscard]] ConnId connect(std::uint64_t client_id);

  /// Forgets a closed connection: drops its undelivered output, and
  /// returns false while requests it sent are still queued — their
  /// batches will run, so call again after they have. Returns true once
  /// the connection's state is gone and its id free for reuse; must not
  /// be called again for `conn` until connect() hands it out anew.
  [[nodiscard]] bool disconnect(ConnId conn);

  /// Client→server bytes arriving at `now`. Frames are decoded
  /// incrementally; complete requests are admitted or shed immediately.
  /// `now` must not go backwards across calls.
  void submit(ConnId conn, std::span<const std::uint8_t> bytes, SimTime now);

  /// The decode+admit half of submit(), without the trailing
  /// run_until(now). The socket transport feeds each read(2) chunk
  /// through here and drives batch formation from its Clock instead, so
  /// the session layer's decisions depend on *when bytes arrived*, never
  /// on how TCP happened to segment them — the invariant behind the
  /// differential transport tests.
  void ingest(ConnId conn, std::span<const std::uint8_t> bytes, SimTime now);

  /// Runs every batch whose formation closes at or before `now`. When
  /// `clock` measures wall time, completion is a measurement: each batch
  /// ends at a reading taken after the oracle returns — its output ready
  /// time and the executor's free time — and batches closing by the end
  /// of the last one run too. Otherwise (nullptr, ManualClock) batches
  /// end at the FrontConfig model's time.
  void run_until(SimTime now, Clock* clock = nullptr);

  /// Earliest sim time at which the server has something to deliver or
  /// do: a pending output frame, or the close of the next batch.
  [[nodiscard]] std::optional<SimTime> next_activity() const;

  /// Server→client bytes whose simulated ready time has arrived.
  [[nodiscard]] std::vector<std::uint8_t> take_output(ConnId conn,
                                                      SimTime now);

  [[nodiscard]] const FrontStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] const FrontConfig& config() const noexcept { return config_; }

  /// Token buckets currently held. A bucket that has refilled to
  /// client_burst is indistinguishable from a fresh one and is dropped,
  /// so the table tracks recently throttling clients, not every client
  /// id ever seen.
  [[nodiscard]] std::size_t client_bucket_count() const noexcept {
    return buckets_.size();
  }

  /// True when nothing is queued, in flight, or waiting to be read —
  /// the post-overload "drained back to steady state" predicate.
  [[nodiscard]] bool drained() const noexcept;

  /// Publishes front.* counters / queue-depth gauge / service-latency
  /// histogram, and on a wall clock front.batch_cost_error_ms: the
  /// FrontConfig-predicted minus the measured time of each batch.
  /// Observational only; nullptr detaches.
  void attach_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Pending {
    SimTime enqueue_us = 0;
    SimTime deadline_us = 0;  ///< 0 = none
    std::uint64_t seq = 0;    ///< admission order; the EDF tie-break
    ConnId conn = 0;
    Request request;
  };

  struct Output {
    SimTime ready_us = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;
  };

  struct TokenBucket {
    std::uint64_t micro_tokens = 0;  ///< tokens × 1e6, integer exact
    SimTime refilled_us = 0;
  };

  struct Conn {
    std::uint64_t client_id = 0;
    FrameDecoder decoder;
    std::vector<Output> outputs;
  };

  void admit(ConnId conn, Request&& request, SimTime now);
  /// True when the bucket has a token to spend at `now`.
  [[nodiscard]] bool take_token(std::uint64_t client_id, SimTime now);
  /// Drops every bucket that has refilled to client_burst by `now`.
  void drop_full_buckets(SimTime now);
  void emit_error(ConnId conn, std::uint64_t request_id, ErrorCode code,
                  SimTime ready);
  void push_output(ConnId conn, std::vector<std::uint8_t>&& bytes,
                   SimTime ready);
  /// Close time of the next batch given the queue head; nullopt when
  /// the queue is empty.
  [[nodiscard]] std::optional<SimTime> next_batch_close() const;
  /// `wall` is nullptr or a clock that measures wall time.
  void run_batch(SimTime close, Clock* wall);
  void note_queue_depth();

  const serve::Oracle* oracle_;
  serve::ColumnarStore* store_;
  FrontConfig config_;
  std::vector<Conn> conns_;
  std::vector<ConnId> free_conns_;  ///< disconnected ids, reused LIFO
  std::vector<Pending> queue_;  ///< arrival order; EDF-selected per batch
  std::unordered_map<std::uint64_t, TokenBucket> buckets_;
  /// Table size at which the next new client triggers
  /// drop_full_buckets: twice the survivors of the last sweep, so the
  /// sweeps cost amortised O(1) per new client.
  std::size_t bucket_sweep_at_ = 0;
  SimTime busy_until_ = 0;
  std::uint64_t seq_ = 0;         ///< admission sequence
  std::uint64_t out_seq_ = 0;     ///< output emission sequence
  FrontStats stats_;

  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* answered = nullptr;
    obs::Counter* shed_queue_full = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* shed_throttled = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* decode_errors = nullptr;
    obs::Counter* stale_refreshes = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::LatencyHistogram* service_ms = nullptr;
    obs::LatencyHistogram* batch_cost_error_ms = nullptr;
  };
  Instruments instruments_{};
};

}  // namespace shears::front
