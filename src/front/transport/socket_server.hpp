// Real TCP transport for the serving front-end: a non-blocking epoll
// event loop speaking the PR-6 frame protocol over loopback (or any
// IPv4) sockets, in front of an unchanged FrontServer.
//
// The session layer stays the system of record for every serving
// decision — admission, fairness, deadlines, batching, staleness. This
// layer owns only what a byte stream adds on top:
//
//   * Edge-triggered reads into the per-connection FrameDecoder via
//     FrontServer::ingest — partial reads are fed as they arrive and a
//     frame split across a hundred segments reassembles exactly once.
//   * Write buffering with backpressure: responses are written as far
//     as the socket accepts, the rest is buffered and flushed on
//     EPOLLOUT. A peer that stops reading past the high watermark is
//     disconnected (shed_highwater) instead of buffering without bound.
//   * Idle timeouts: a connection that goes idle-while-incomplete (the
//     slowloris shape: trickle half a header, then hold the fd) is
//     closed after idle_timeout_us without touching other connections.
//   * Graceful drain: stop accepting, finish queued batches, flush
//     every outbox, then close — the socket twin of FrontServer's
//     drained() predicate.
//
// Clock discipline: all timestamps handed to the session layer come
// from the Clock seam, and the transport hands the clock itself to
// every FrontServer::run_until. With a MonotonicClock this is a
// production server: batches complete when the oracle returns, and the
// loop sleeps until the session layer's exact next activity (a timerfd
// in the epoll set, armed to the microsecond). With a ManualClock the
// *differential tests* replay a recorded request stream at exact
// timestamps and compare the socket path's responses byte-for-byte
// against the simulated transport — TCP delivery jitter cannot perturb
// the session layer's decisions because the harness owns time (and, in
// manual-pump mode, batch formation).
//
// Threading: the event loop is single-threaded. poll()/run() and every
// accessor must be called from the owning thread; request_stop() and
// request_drain() are the only cross-thread entry points (atomic flag +
// eventfd wakeup).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "front/server.hpp"
#include "front/transport/clock.hpp"

namespace shears::front {

/// Thrown on socket/epoll syscall failures (message carries errno).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// True when this process may create TCP sockets, bind them to
/// loopback, and epoll them — the capability probe the loopback tests
/// and benches use to *skip* (not fail) in sandboxes without socket(2).
[[nodiscard]] bool sockets_available() noexcept;

/// Same probe for AF_UNIX socketpair(2) (the torture-test harness).
[[nodiscard]] bool socketpair_available() noexcept;

struct TransportConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (listen()
  /// returns the choice).
  std::uint16_t port = 0;
  int backlog = 64;
  std::size_t max_connections = 1024;
  /// Bytes per read(2) call on the edge-triggered drain loop.
  std::size_t read_chunk = 64 * 1024;
  /// Unsent response bytes a connection may buffer before it is shed.
  std::size_t write_high_watermark = 1 << 20;
  /// Close connections quiet for this long; 0 disables. This is the
  /// slowloris defence: bytes read reset the timer, open-and-hold does
  /// not.
  SimTime idle_timeout_us = 0;
  /// When true (the default), every poll() pumps the session layer
  /// (run_until + output collection). The differential harness turns
  /// this off and calls pump_session() itself, so batch formation
  /// happens at scripted times rather than at whatever granularity TCP
  /// delivered the bytes.
  bool auto_pump = true;

  /// Throws std::invalid_argument on zero chunk/watermark/connections.
  void validate() const;
};

struct TransportStats {
  std::uint64_t accepted = 0;
  std::uint64_t adopted = 0;
  std::uint64_t closed = 0;          ///< all closes, any cause
  std::uint64_t closed_by_peer = 0;  ///< clean EOF
  std::uint64_t reset_by_peer = 0;   ///< ECONNRESET / EPIPE mid-stream
  std::uint64_t shed_highwater = 0;  ///< write buffer overran the mark
  std::uint64_t idle_closed = 0;     ///< idle timeout (slowloris et al.)
  std::uint64_t accept_overflow = 0; ///< accepted then dropped: at capacity
  std::uint64_t bytes_in = 0;        ///< read and fed to the session layer
  std::uint64_t bytes_out = 0;       ///< written to sockets
  std::uint64_t partial_writes = 0;  ///< write calls that could not finish
};

class SocketServer {
 public:
  /// `server` and `clock` must outlive this object.
  SocketServer(FrontServer* server, Clock* clock, TransportConfig config = {});
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds 127.0.0.1:config.port and starts accepting; returns the
  /// bound port. Throws TransportError when sockets are unavailable.
  std::uint16_t listen();

  /// Registers an already-connected stream fd (e.g. one end of a
  /// socketpair) as a connection; takes ownership of the fd. The id
  /// feeds the session layer's fairness bucket.
  ConnId adopt(int fd, std::uint64_t client_id);

  /// One event-loop iteration: waits up to `max_wait_us` for socket
  /// events (less when the session layer has earlier work, to the
  /// microsecond), handles accepts/reads/writes/timeouts, and — in
  /// auto_pump mode — pumps the session layer. Returns the number of
  /// fd events handled; 0 means the wait ran out.
  int poll(SimTime max_wait_us);

  /// Runs batches due by clock->now(), collects the server→client frames
  /// ready by a second reading taken after them (so a batch that just
  /// finished leaves now) into per-connection write buffers, and flushes
  /// as far as the sockets accept. Called by poll() unless auto_pump is
  /// off.
  void pump_session();

  /// Loops poll() until request_stop(), or until a requested drain
  /// completes (queue empty, outboxes flushed, connections closed).
  void run();

  /// Thread-safe: wake the loop and make run() return.
  void request_stop();
  /// Thread-safe: stop accepting, finish in-flight work, flush, close
  /// every connection, then let run() return.
  void request_drain();

  /// Nothing queued, in flight, or buffered for write anywhere.
  [[nodiscard]] bool drained() const;
  [[nodiscard]] bool draining() const noexcept { return drain_requested_; }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return open_connections_;
  }
  /// Closed connections whose session-layer id is not yet released
  /// because requests they sent are still queued.
  [[nodiscard]] std::size_t closing_count() const noexcept {
    return dead_conns_.size();
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

 private:
  struct Peer {
    int fd = -1;
    ConnId conn = 0;
    bool open = false;
    bool want_write = false;           ///< EPOLLOUT armed
    std::vector<std::uint8_t> outbox;  ///< unsent response bytes
    std::size_t out_pos = 0;           ///< outbox send cursor
    SimTime last_read_us = 0;          ///< idle-timeout anchor
  };

  void ensure_open();  ///< lazily creates the epoll, wakeup and timer fds
  [[nodiscard]] Peer& peer_of(int fd);
  ConnId register_peer(int fd, std::uint64_t client_id);
  void accept_ready();
  void read_ready(int fd);
  /// Appends and flushes; may close the peer (high watermark / EPIPE).
  void enqueue_output(int fd, std::vector<std::uint8_t>&& bytes);
  void flush_peer(int fd);
  void close_peer(int fd, std::uint64_t TransportStats::*cause);
  void close_listener();
  void sweep_idle(SimTime now);
  /// Releases closed connections from the session layer once none of
  /// their requests is queued; their output is discarded, so drained()
  /// converges after disconnects.
  void release_dead_conns();
  /// Microseconds until the next thing this loop must do, capped at
  /// `max_wait_us`.
  [[nodiscard]] SimTime wait_us(SimTime max_wait_us);
  /// Arms the timerfd to fire `wait` (> 0) µs from now.
  void arm_timer(SimTime wait);

  FrontServer* server_;
  Clock* clock_;
  TransportConfig config_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Peer> peers_;  ///< indexed by fd
  std::vector<std::uint8_t> read_buf_;  ///< read_chunk bytes, reused
  std::vector<ConnId> dead_conns_;  ///< closed, session state still held
  std::size_t open_connections_ = 0;
  std::uint64_t next_client_id_ = 0;  ///< accept-order fairness ids
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  TransportStats stats_;
};

}  // namespace shears::front
