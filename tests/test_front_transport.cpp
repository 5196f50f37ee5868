// The socket transport, tested three ways: differentially (a scripted
// request stream served over real TCP must produce byte-identical
// responses to the simulated transport, at oracle thread counts 1 and
// 8), under byte-stream torture (1-byte dribble, tiny-SO_SNDBUF partial
// writes), and against malicious peers (oversized lengths, corrupted
// magic, slowloris trickle, abrupt RST) — each attack confined to its
// own connection. Further cases pin what only a wall clock changes
// (batches complete when the oracle returns, waits are µs-precise) and
// that connection churn leaves no per-connection state behind.
//
// Every test that needs a kernel socket probes for the capability first
// and skips (never fails) where the sandbox lacks socket(2).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/tags.hpp"
#include "front/frame.hpp"
#include "front/server.hpp"
#include "front/transport/blocking_client.hpp"
#include "front/transport/clock.hpp"
#include "front/transport/socket_server.hpp"
#include "geo/country.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "topology/registry.hpp"

namespace shears::front {
namespace {

// ---------------------------------------------------------------- world

atlas::Probe make_probe(atlas::ProbeId id, const char* iso2,
                        net::AccessTechnology access) {
  atlas::Probe probe;
  probe.id = id;
  probe.country = geo::find_country(iso2);
  EXPECT_NE(probe.country, nullptr) << iso2;
  probe.endpoint.location = probe.country->site;
  probe.endpoint.tier = probe.country->tier;
  probe.endpoint.access = access;
  probe.environment = atlas::Environment::kHome;
  probe.tags = atlas::make_tags(access, atlas::Environment::kHome, true);
  return probe;
}

atlas::Measurement row(atlas::ProbeId probe, std::uint16_t region,
                       std::uint32_t tick, float min_ms) {
  atlas::Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.min_ms = min_ms;
  m.avg_ms = min_ms + 1.0f;
  m.max_ms = min_ms + 2.0f;
  m.sent = 3;
  m.received = 3;
  return m;
}

/// The FrontWorld fixture with a configurable oracle thread count — the
/// differential tests pin the socket path against thread counts 1 and 8.
struct World {
  topology::CloudRegistry registry;
  atlas::ProbeFleet fleet;
  serve::ColumnarStore store;
  serve::Oracle oracle;

  explicit World(int threads)
      : registry({topology::all_regions().data(),
                  topology::all_regions().data() + 1,
                  topology::all_regions().data() + 2}),
        fleet(atlas::ProbeFleet::from_probes({
            make_probe(0, "DE", net::AccessTechnology::kEthernet),
            make_probe(1, "DE", net::AccessTechnology::kLte),
            make_probe(2, "FR", net::AccessTechnology::kEthernet),
        })),
        store(&fleet, &registry, serve::StoreConfig{1}),
        oracle(&store,
               serve::OracleConfig{static_cast<std::size_t>(threads), {}}) {
    store.append(std::vector<atlas::Measurement>{
        row(0, 0, 0, 20.0f), row(0, 1, 0, 55.0f), row(1, 0, 0, 35.0f),
        row(2, 1, 0, 70.0f)});
    store.refresh();
  }
};

std::vector<std::uint8_t> request_bytes(std::uint64_t id,
                                        std::uint64_t client_id,
                                        const char* iso2,
                                        SimTime deadline_us = 0) {
  Request req;
  req.request_id = id;
  req.client_id = client_id;
  req.deadline_us = deadline_us;
  req.kind = serve::QueryKind::kBestRtt;
  req.country_iso2 = iso2;
  req.any_access = true;
  std::vector<std::uint8_t> bytes;
  append_request_frame(bytes, req);
  return bytes;
}

/// Hand-rolls a frame with arbitrary header fields and a valid checksum.
std::vector<std::uint8_t> raw_frame(std::uint8_t version, std::uint8_t type,
                                    std::uint32_t claimed_length,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(kFrameMagic));
  out.push_back(static_cast<std::uint8_t>(kFrameMagic >> 8));
  out.push_back(version);
  out.push_back(type);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(claimed_length >> (8 * i)));
  }
  const std::uint32_t checksum = frame_checksum(version, type, payload);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Decodes every frame in a delivered byte buffer.
std::vector<FrameDecoder::Item> decode_all(
    const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  std::vector<FrameDecoder::Item> items;
  while (true) {
    FrameDecoder::Item item = decoder.next();
    if (item.status == DecodeStatus::kNeedMore) break;
    items.push_back(std::move(item));
  }
  return items;
}

std::size_t count_frames(const std::vector<std::uint8_t>& bytes,
                         FrameType type) {
  std::size_t n = 0;
  for (const auto& item : decode_all(bytes)) {
    if (item.status == DecodeStatus::kFrame && item.type == type) n += 1;
  }
  return n;
}

std::size_t count_errors(const std::vector<std::uint8_t>& bytes,
                         ErrorCode code) {
  std::size_t n = 0;
  for (const auto& item : decode_all(bytes)) {
    if (item.status != DecodeStatus::kFrame || item.type != FrameType::kError) {
      continue;
    }
    Error err;
    if (decode_error(item.payload, err) && err.code == code) n += 1;
  }
  return n;
}

// --------------------------------------------------- differential gate

/// One scripted arrival: `bytes` from `client` land at sim time `at`.
/// The same script drives both transports.
struct Event {
  SimTime at = 0;
  std::size_t client = 0;
  std::vector<std::uint8_t> bytes;
};

struct PathResult {
  std::vector<std::vector<std::uint8_t>> streams;  ///< per client
  FrontStats stats;
  bool drained = false;
};

/// The oracle side: the simulated transport, taking output at exactly
/// the same instants the socket path pumps.
PathResult run_sim(World& world, const FrontConfig& config,
                   std::size_t clients, const std::vector<Event>& script,
                   SimTime horizon) {
  FrontServer server(&world.oracle, &world.store, config);
  std::vector<ConnId> conns;
  conns.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    conns.push_back(server.connect(i));
  }
  PathResult result;
  result.streams.resize(clients);
  for (const Event& event : script) {
    server.submit(conns[event.client], event.bytes, event.at);
    for (std::size_t i = 0; i < clients; ++i) {
      const auto out = server.take_output(conns[i], event.at);
      result.streams[i].insert(result.streams[i].end(), out.begin(),
                               out.end());
    }
  }
  server.run_until(horizon);
  for (std::size_t i = 0; i < clients; ++i) {
    const auto out = server.take_output(conns[i], horizon);
    result.streams[i].insert(result.streams[i].end(), out.begin(), out.end());
  }
  result.stats = server.stats();
  result.drained = server.drained();
  return result;
}

/// The system under test: the same script over real TCP. ManualClock
/// pins every timestamp the session layer sees; auto_pump is off so
/// batch formation happens at scripted instants, not at whatever
/// granularity TCP delivered the bytes; events are serialized (each
/// one's bytes are fully ingested before the next send) so admission
/// order matches the script.
void run_socket(World& world, const FrontConfig& config, std::size_t clients,
                const std::vector<Event>& script, SimTime horizon,
                const std::vector<std::size_t>& expected_sizes,
                PathResult* result) {
  FrontServer server(&world.oracle, &world.store, config);
  ManualClock clock;
  TransportConfig tconfig;
  tconfig.auto_pump = false;
  SocketServer transport(&server, &clock, tconfig);
  const std::uint16_t port = transport.listen();

  std::vector<BlockingClient> socks(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    socks[i].connect(port);
    // Serialize accepts so accept-order client ids match the script's.
    for (int spin = 0; transport.connection_count() < i + 1; ++spin) {
      ASSERT_LT(spin, 5'000) << "accept #" << i << " never completed";
      (void)transport.poll(1'000);
    }
  }

  std::uint64_t sent_total = 0;
  for (const Event& event : script) {
    clock.advance_to(event.at);
    socks[event.client].send(event.bytes);
    sent_total += event.bytes.size();
    for (int spin = 0; transport.stats().bytes_in < sent_total; ++spin) {
      ASSERT_LT(spin, 5'000) << "bytes at t=" << event.at << " never arrived";
      (void)transport.poll(1'000);
    }
    transport.pump_session();
  }
  clock.advance_to(horizon);
  transport.pump_session();

  result->streams.resize(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    std::vector<std::uint8_t>& stream = result->streams[i];
    for (int spin = 0; stream.size() < expected_sizes[i]; ++spin) {
      ASSERT_LT(spin, 5'000) << "client " << i << " short-read: "
                             << stream.size() << " of " << expected_sizes[i]
                             << " bytes";
      const auto raw = socks[i].recv_some(20);
      if (raw.empty()) {
        ASSERT_FALSE(socks[i].eof()) << "client " << i;
        (void)transport.poll(1'000);  // flush anything owed on EPOLLOUT
        continue;
      }
      stream.insert(stream.end(), raw.begin(), raw.end());
    }
    // The socket path must not have sent anything the simulation did
    // not: after the expected bytes, the pipe is silent.
    const auto extra = socks[i].recv_some(20);
    EXPECT_TRUE(extra.empty()) << "client " << i << " over-delivered";
  }
  result->stats = server.stats();
  result->drained = server.drained();
}

/// Runs the script through both transports and requires byte-identical
/// per-connection response streams, identical session-layer stats, and
/// a drained server on both sides. `threads` varies the socket path's
/// oracle parallelism against the single-threaded golden run.
void expect_differential(const FrontConfig& config, std::size_t clients,
                         const std::vector<Event>& script, SimTime horizon,
                         int threads) {
  World golden_world(1);
  const PathResult golden =
      run_sim(golden_world, config, clients, script, horizon);

  World socket_world(threads);
  std::vector<std::size_t> expected_sizes;
  expected_sizes.reserve(clients);
  for (const auto& stream : golden.streams) {
    expected_sizes.push_back(stream.size());
  }
  PathResult got;
  run_socket(socket_world, config, clients, script, horizon, expected_sizes,
             &got);
  if (::testing::Test::HasFatalFailure()) return;

  for (std::size_t i = 0; i < clients; ++i) {
    EXPECT_EQ(got.streams[i], golden.streams[i])
        << "client " << i << " diverged (threads=" << threads << ")";
  }
  EXPECT_EQ(got.stats, golden.stats) << "threads=" << threads;
  EXPECT_TRUE(golden.drained);
  EXPECT_TRUE(got.drained);
}

TEST(FrontTransportDifferential, UncontendedStreamMatchesSimulation) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  FrontConfig config;
  std::vector<Event> script;
  const char* iso[3] = {"DE", "FR", "DE"};
  std::uint64_t id = 1;
  for (SimTime t = 1'000; t <= 12'000; t += 1'000) {
    const std::size_t client = (t / 1'000) % 3;
    script.push_back({t, client, request_bytes(id++, client, iso[client])});
  }
  for (const int threads : {1, 8}) {
    expect_differential(config, 3, script, 1'000'000, threads);
  }
}

TEST(FrontTransportDifferential, OverloadAndDeadlinesMatchSimulation) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  FrontConfig config;
  config.queue_capacity = 3;
  config.max_batch = 2;
  config.batch_overhead_us = 2'000;  // slow service: the queue backs up
  config.default_deadline_us = 6'000;
  std::vector<Event> script;
  std::uint64_t id = 1;
  // A same-instant burst far beyond the queue: sheds at the door, then
  // deadline expiries for the tail that got in but cannot be served.
  for (int burst = 0; burst < 10; ++burst) {
    script.push_back({1'000, static_cast<std::size_t>(burst % 2),
                      request_bytes(id++, burst % 2, "DE", 7'000)});
  }
  script.push_back({30'000, 0, request_bytes(id++, 0, "FR")});
  for (const int threads : {1, 8}) {
    expect_differential(config, 2, script, 1'000'000, threads);
  }
}

TEST(FrontTransportDifferential, ThrottledClientMatchesSimulation) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  FrontConfig config;
  config.client_rate_qps = 10;
  config.client_burst = 1;
  std::vector<Event> script;
  std::uint64_t id = 1;
  // Client 0 hammers far past its bucket; client 1 stays polite.
  for (int k = 0; k < 8; ++k) {
    script.push_back(
        {2'000 + static_cast<SimTime>(k), 0, request_bytes(id++, 0, "DE")});
  }
  script.push_back({5'000, 1, request_bytes(id++, 1, "FR")});
  for (const int threads : {1, 8}) {
    expect_differential(config, 2, script, 1'000'000, threads);
  }
}

TEST(FrontTransportDifferential, DecodeDamageMatchesSimulation) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  FrontConfig config;
  std::vector<Event> script;
  script.push_back({1'000, 0, request_bytes(1, 0, "DE")});
  // A corrupted frame (payload bit flip breaks the checksum) between
  // two valid ones: the damage must cost exactly one frame on both
  // transports.
  std::vector<std::uint8_t> damaged = request_bytes(2, 0, "DE");
  damaged.back() ^= 0xff;
  script.push_back({2'000, 0, std::move(damaged)});
  // Client 1 interleaves raw garbage and then a valid frame: resync.
  script.push_back({2'500, 1, {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}});
  script.push_back({3'000, 0, request_bytes(3, 0, "DE")});
  script.push_back({4'000, 1, request_bytes(4, 1, "FR")});
  for (const int threads : {1, 8}) {
    expect_differential(config, 2, script, 1'000'000, threads);
  }
}

// ------------------------------------------------------------- torture

/// Polls the transport until `done` or the spin budget dies.
template <typename Pred>
void poll_until(SocketServer& transport, Pred done, const char* what) {
  for (int spin = 0; !done(); ++spin) {
    ASSERT_LT(spin, 10'000) << what;
    (void)transport.poll(1'000);
  }
}

TEST(FrontTransportTorture, OneByteDribbleReassemblesEveryFrame) {
  if (!socketpair_available()) GTEST_SKIP() << "no socketpair here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  ManualClock clock;
  SocketServer transport(&server, &clock, TransportConfig{});

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  (void)transport.adopt(fds[0], 7);
  BlockingClient client;
  client.adopt(fds[1]);

  constexpr int kRequests = 5;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    const auto frame = request_bytes(id, 7, id % 2 == 0 ? "DE" : "FR");
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  // One byte per send: every frame crosses the transport in ~40 pieces
  // and must reassemble exactly once — no drop, no duplicate.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    client.send(std::span<const std::uint8_t>(&wire[i], 1));
    poll_until(
        transport,
        [&] { return transport.stats().bytes_in >= i + 1; },
        "dribbled byte never arrived");
    if (HasFatalFailure()) return;
  }
  clock.advance_by(1'000'000);
  transport.pump_session();

  EXPECT_EQ(server.stats().frames_in, kRequests);
  EXPECT_EQ(server.stats().decode_errors, 0u);
  std::vector<std::uint8_t> responses;
  while (responses.size() < kRequests * kFrameHeaderBytes) {
    const auto raw = client.recv_some(2'000);
    ASSERT_FALSE(raw.empty() && client.eof()) << "server closed early";
    ASSERT_FALSE(raw.empty()) << "response timeout";
    responses.insert(responses.end(), raw.begin(), raw.end());
    if (count_frames(responses, FrameType::kResponse) == kRequests) break;
  }
  EXPECT_EQ(count_frames(responses, FrameType::kResponse), kRequests);
}

TEST(FrontTransportTorture, TinySendBufferForcesPartialWrites) {
  if (!socketpair_available()) GTEST_SKIP() << "no socketpair here";
  World world(1);
  FrontConfig fconfig;
  fconfig.queue_capacity = 4096;
  FrontServer server(&world.oracle, &world.store, fconfig);
  ManualClock clock;
  TransportConfig tconfig;
  tconfig.write_high_watermark = 8u << 20;  // shed must NOT fire here
  SocketServer transport(&server, &clock, tconfig);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Starve the server side's send buffer so flushes hit EAGAIN while
  // the client is not reading. (The kernel clamps to its floor — a few
  // KB — so the response volume below must comfortably exceed it.)
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  (void)transport.adopt(fds[0], 7);
  BlockingClient client;
  client.adopt(fds[1]);

  constexpr int kRequests = 600;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    const auto frame = request_bytes(id, 7, "DE");
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  client.send(wire);
  poll_until(
      transport,
      [&] { return transport.stats().bytes_in >= wire.size(); },
      "requests never arrived");
  if (HasFatalFailure()) return;
  clock.advance_by(10'000'000);
  transport.pump_session();
  ASSERT_EQ(server.stats().answered, kRequests);
  EXPECT_GT(transport.stats().partial_writes, 0u)
      << "send buffer never filled; the partial-write path went untested";
  EXPECT_EQ(transport.stats().shed_highwater, 0u);

  // Now read slowly; EPOLLOUT must flush the backlog without dropping,
  // duplicating, or reordering a single frame.
  std::vector<std::uint8_t> responses;
  for (int spin = 0;
       count_frames(responses, FrameType::kResponse) < kRequests; ++spin) {
    ASSERT_LT(spin, 10'000) << "backlog never flushed";
    const auto raw = client.recv_some(50);
    if (raw.empty()) {
      ASSERT_FALSE(client.eof()) << "server closed mid-backlog";
      (void)transport.poll(1'000);
      continue;
    }
    responses.insert(responses.end(), raw.begin(), raw.end());
  }
  EXPECT_EQ(count_frames(responses, FrameType::kResponse), kRequests);
  // Stream integrity: all frames decoded cleanly, in request-id order.
  std::uint64_t expect_id = 1;
  for (const auto& item : decode_all(responses)) {
    ASSERT_EQ(item.status, DecodeStatus::kFrame);
    Response res;
    ASSERT_TRUE(decode_response(item.payload, res));
    EXPECT_EQ(res.request_id, expect_id++);
  }
}

// ----------------------------------------------------- malicious peers

TEST(FrontTransportMalicious, OversizedLengthResyncsAndServesOn) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  ManualClock clock;
  SocketServer transport(&server, &clock, TransportConfig{});
  const std::uint16_t port = transport.listen();

  BlockingClient attacker;
  attacker.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 1; },
      "attacker accept");
  BlockingClient victim;
  victim.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 2; },
      "victim accept");
  if (HasFatalFailure()) return;

  // A header advertising 16 MB must not allocate 16 MB or stall the
  // decoder: it costs one header's worth of resync, then the valid
  // frame behind it is served.
  std::vector<std::uint8_t> attack = raw_frame(
      kProtocolVersion, static_cast<std::uint8_t>(FrameType::kRequest),
      16u << 20, {});
  const auto good = request_bytes(1, 0, "DE");
  attack.insert(attack.end(), good.begin(), good.end());
  attacker.send(attack);
  victim.send(request_bytes(2, 1, "FR"));

  // The victim's frame is the same size as `good` (equal-length bodies).
  const std::size_t total = attack.size() + good.size();
  poll_until(
      transport, [&] { return transport.stats().bytes_in >= total; },
      "attack bytes");
  if (HasFatalFailure()) return;
  clock.advance_by(1'000'000);
  transport.pump_session();

  EXPECT_GE(server.stats().decode_errors, 1u);
  EXPECT_EQ(server.stats().answered, 2u);
  EXPECT_EQ(transport.connection_count(), 2u);
  for (BlockingClient* c : {&attacker, &victim}) {
    std::vector<std::uint8_t> got;
    while (count_frames(got, FrameType::kResponse) < 1) {
      const auto raw = c->recv_some(2'000);
      ASSERT_FALSE(raw.empty()) << "no response";
      got.insert(got.end(), raw.begin(), raw.end());
    }
  }
}

TEST(FrontTransportMalicious, CorruptedMagicMidStreamResyncs) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  ManualClock clock;
  SocketServer transport(&server, &clock, TransportConfig{});
  const std::uint16_t port = transport.listen();

  BlockingClient peer;
  peer.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 1; }, "accept");
  if (HasFatalFailure()) return;

  // valid | garbage torn from a frame whose magic got stomped | valid:
  // the decoder must resync to the second valid frame's magic.
  std::vector<std::uint8_t> wire = request_bytes(1, 0, "DE");
  auto stomped = request_bytes(99, 0, "FR");
  stomped[0] ^= 0xff;  // no longer starts with kFrameMagic
  wire.insert(wire.end(), stomped.begin(), stomped.end());
  const auto good = request_bytes(2, 0, "DE");
  wire.insert(wire.end(), good.begin(), good.end());
  peer.send(wire);

  poll_until(
      transport, [&] { return transport.stats().bytes_in >= wire.size(); },
      "stream");
  if (HasFatalFailure()) return;
  clock.advance_by(1'000'000);
  transport.pump_session();

  EXPECT_EQ(server.stats().frames_in, 2u);
  EXPECT_EQ(server.stats().answered, 2u);
  EXPECT_EQ(transport.connection_count(), 1u);
}

TEST(FrontTransportMalicious, SlowlorisTrickleHitsIdleTimeoutAlone) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  ManualClock clock;
  TransportConfig tconfig;
  tconfig.idle_timeout_us = 1'000'000;
  SocketServer transport(&server, &clock, tconfig);
  const std::uint16_t port = transport.listen();

  BlockingClient slow;
  slow.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 1; },
      "slow accept");
  BlockingClient honest;
  honest.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 2; },
      "honest accept");
  if (HasFatalFailure()) return;

  // The slowloris shape: three header bytes, then hold the fd open.
  const std::uint8_t trickle[3] = {
      static_cast<std::uint8_t>(kFrameMagic),
      static_cast<std::uint8_t>(kFrameMagic >> 8), kProtocolVersion};
  slow.send(trickle);
  poll_until(
      transport, [&] { return transport.stats().bytes_in >= 3; }, "trickle");
  if (HasFatalFailure()) return;

  // 900 ms later the honest client transacts normally — its read
  // refreshes its idle anchor; the slowloris fd stays silent.
  clock.advance_to(900'000);
  const auto good = request_bytes(1, 1, "DE");
  honest.send(good);
  poll_until(
      transport,
      [&] { return transport.stats().bytes_in >= 3 + good.size(); },
      "honest request");
  if (HasFatalFailure()) return;
  transport.pump_session();
  EXPECT_EQ(server.stats().answered, 1u);

  // At 1.1 s the slow fd has been idle past the timeout; the honest one
  // is 200 ms fresh. Exactly one connection dies.
  clock.advance_to(1'100'000);
  (void)transport.poll(0);
  EXPECT_EQ(transport.stats().idle_closed, 1u);
  EXPECT_EQ(transport.connection_count(), 1u);
  poll_until(
      transport, [&] { return slow.recv_some(10).empty() && slow.eof(); },
      "slowloris close");
  if (HasFatalFailure()) return;

  // The survivor keeps being served.
  honest.send(request_bytes(2, 1, "FR"));
  poll_until(
      transport,
      [&] { return transport.stats().bytes_in >= 3 + 2 * good.size(); },
      "second honest request");
  if (HasFatalFailure()) return;
  // Jump past the batch's completion so its response frame is released.
  clock.advance_by(1'000'000);
  transport.pump_session();
  EXPECT_EQ(server.stats().answered, 2u);
  std::vector<std::uint8_t> got;
  while (count_frames(got, FrameType::kResponse) < 2) {
    const auto raw = honest.recv_some(2'000);
    ASSERT_FALSE(raw.empty()) << "honest client starved";
    got.insert(got.end(), raw.begin(), raw.end());
  }
}

TEST(FrontTransportMalicious, AbruptResetIsConfinedToOneConnection) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  ManualClock clock;
  SocketServer transport(&server, &clock, TransportConfig{});
  const std::uint16_t port = transport.listen();

  BlockingClient rude;
  rude.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 1; },
      "rude accept");
  BlockingClient polite;
  polite.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 2; },
      "polite accept");
  if (HasFatalFailure()) return;

  // The rude peer fires a request and slams the door (SO_LINGER(0) →
  // RST) without reading its response. Whether the RST lands before or
  // after the request is read, the close must surface as reset_by_peer
  // on that connection only.
  rude.send(request_bytes(1, 0, "DE"));
  rude.reset();
  poll_until(
      transport, [&] { return transport.stats().reset_by_peer >= 1; },
      "reset never surfaced");
  if (HasFatalFailure()) return;
  EXPECT_EQ(transport.connection_count(), 1u);

  clock.advance_by(1'000'000);
  const auto good = request_bytes(2, 1, "FR");
  const std::uint64_t seen = transport.stats().bytes_in;
  polite.send(good);
  poll_until(
      transport,
      [&] { return transport.stats().bytes_in >= seen + good.size(); },
      "polite request never arrived");
  if (HasFatalFailure()) return;
  // Jump past the batch's completion so its response frame is released.
  clock.advance_by(1'000'000);
  transport.pump_session();
  EXPECT_GE(server.stats().answered, 1u);
  std::vector<std::uint8_t> got;
  while (count_frames(got, FrameType::kResponse) < 1) {
    const auto raw = polite.recv_some(2'000);
    ASSERT_FALSE(raw.empty()) << "polite client starved";
    got.insert(got.end(), raw.begin(), raw.end());
  }
  EXPECT_EQ(count_errors(got, ErrorCode::kBadRequest), 0u);
}

// ------------------------------------------------------- clock & wakeups

/// A deterministic wall clock: every reading advances time by a fixed
/// step, so "the instant the oracle returned" is an exact number.
class SteppingClock final : public Clock {
 public:
  SteppingClock(SimTime start, SimTime step) : next_(start), step_(step) {}
  [[nodiscard]] SimTime now() override {
    last_ = next_;
    next_ += step_;
    return last_;
  }
  [[nodiscard]] bool measures_wall_time() const noexcept override {
    return true;
  }
  /// The most recent reading handed out.
  [[nodiscard]] SimTime last() const noexcept { return last_; }

 private:
  SimTime next_;
  SimTime step_;
  SimTime last_ = 0;
};

TEST(FrontTransportClock, WallClockBatchIsReadyWhenTheOracleReturns) {
  World world(1);
  const FrontConfig config;  // model: 100 us + 2 us/query
  const SimTime modelled =
      1'000 + config.batch_overhead_us + config.per_query_us;
  // Two requests 1 us apart: the second misses the first batch's close.
  const std::vector<std::uint8_t> first = request_bytes(1, 0, "DE");
  const std::vector<std::uint8_t> second = request_bytes(2, 0, "FR");

  // ManualClock does not measure wall time: the model stays in charge,
  // and the second batch waits for the first one's modelled end.
  {
    FrontServer server(&world.oracle, &world.store, config);
    ManualClock manual;
    const ConnId conn = server.connect(0);
    server.ingest(conn, first, 1'000);
    server.ingest(conn, second, 1'001);
    server.run_until(1'001, &manual);
    EXPECT_EQ(server.queue_depth(), 1u);
    EXPECT_EQ(server.next_activity(), std::optional<SimTime>(modelled));
    EXPECT_TRUE(server.take_output(conn, modelled - 1).empty());
    EXPECT_EQ(count_frames(server.take_output(conn, modelled),
                           FrameType::kResponse),
              1u);
  }

  // The same script on a wall clock: each batch is ready at the reading
  // taken after its oracle call, not at close + 100 + 2n, and the second
  // batch runs as soon as the first has ended.
  {
    FrontServer server(&world.oracle, &world.store, config);
    SteppingClock clock(1'001, 3);
    const ConnId conn = server.connect(0);
    server.ingest(conn, first, 1'000);
    server.ingest(conn, second, 1'001);
    server.run_until(1'001, &clock);
    const SimTime end = clock.last();
    ASSERT_LT(end, modelled);
    EXPECT_EQ(server.queue_depth(), 0u);
    EXPECT_EQ(server.stats().batches, 2u);
    const std::optional<SimTime> first_ready = server.next_activity();
    ASSERT_TRUE(first_ready.has_value());
    EXPECT_GT(*first_ready, SimTime{1'001});
    EXPECT_LT(*first_ready, end);
    EXPECT_TRUE(server.take_output(conn, *first_ready - 1).empty());
    EXPECT_EQ(count_frames(server.take_output(conn, *first_ready),
                           FrameType::kResponse),
              1u);
    EXPECT_EQ(server.next_activity(), std::optional<SimTime>(end));
    EXPECT_EQ(
        count_frames(server.take_output(conn, end), FrameType::kResponse),
        1u);
    EXPECT_EQ(server.stats().answered, 2u);
  }
}

TEST(FrontTransportClock, SocketPumpDeliversABatchTheMomentItFinishes) {
  if (!socketpair_available()) GTEST_SKIP() << "no socketpair here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  SteppingClock clock(0, 1);
  TransportConfig tconfig;
  tconfig.auto_pump = false;
  SocketServer transport(&server, &clock, tconfig);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  (void)transport.adopt(fds[0], 7);
  BlockingClient client;
  client.adopt(fds[1]);
  const auto request = request_bytes(1, 7, "DE");
  client.send(request);
  poll_until(
      transport,
      [&] { return transport.stats().bytes_in >= request.size(); },
      "request never arrived");
  if (HasFatalFailure()) return;

  // One pump runs the batch and sends its answer: the clock has moved
  // a few microseconds, nowhere near the modelled 102.
  transport.pump_session();
  std::vector<std::uint8_t> got = client.recv_some(2'000);
  ASSERT_FALSE(got.empty()) << "answer held back after its batch finished";
  while (count_frames(got, FrameType::kResponse) < 1) {
    const auto raw = client.recv_some(2'000);
    ASSERT_FALSE(raw.empty()) << "partial response";
    got.insert(got.end(), raw.begin(), raw.end());
  }
  EXPECT_LT(clock.last(), SimTime{100});
}

TEST(FrontTransportClock, IdlePollWaitsAreNotRoundedToMilliseconds) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  MonotonicClock clock;
  SocketServer transport(&server, &clock, TransportConfig{});
  (void)transport.listen();

  std::vector<double> waits_us;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(transport.poll(200), 0);
    waits_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  std::sort(waits_us.begin(), waits_us.end());
  // The wait really happens (no busy return) and ends near 200 us, not
  // at the next whole millisecond.
  EXPECT_GE(waits_us.front(), 200.0);
  EXPECT_LT(waits_us[waits_us.size() / 2], 1'000.0);
}

// ----------------------------------------------------- connection churn

TEST(FrontTransport, ClosedConnectionsAreReleasedFromTheSessionLayer) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  ManualClock clock;
  TransportConfig tconfig;
  tconfig.auto_pump = false;  // requests stay queued until pumped
  SocketServer transport(&server, &clock, tconfig);
  const std::uint16_t port = transport.listen();

  for (std::uint64_t cycle = 0; cycle < 200; ++cycle) {
    BlockingClient peer;
    peer.connect(port);
    poll_until(
        transport, [&] { return transport.connection_count() == 1; },
        "accept");
    if (HasFatalFailure()) return;
    const auto request = request_bytes(cycle + 1, 0, "DE");
    const std::uint64_t seen = transport.stats().bytes_in;
    peer.send(request);
    poll_until(
        transport,
        [&] { return transport.stats().bytes_in >= seen + request.size(); },
        "request");
    if (HasFatalFailure()) return;
    const bool answer_first = cycle % 2 == 0;
    if (answer_first) {
      clock.advance_by(1'000);
      transport.pump_session();
      std::vector<std::uint8_t> got;
      while (count_frames(got, FrameType::kResponse) < 1) {
        const auto raw = peer.recv_some(2'000);
        ASSERT_FALSE(raw.empty()) << "no response in cycle " << cycle;
        got.insert(got.end(), raw.begin(), raw.end());
      }
    }
    peer.close();
    poll_until(
        transport, [&] { return transport.connection_count() == 0; },
        "close");
    if (HasFatalFailure()) return;
    // A request still queued pins the closed connection until its batch
    // has run; nothing else does.
    EXPECT_EQ(transport.closing_count(), answer_first ? 0u : 1u)
        << "cycle " << cycle;
    clock.advance_by(1'000);
    transport.pump_session();
    EXPECT_EQ(transport.closing_count(), 0u) << "cycle " << cycle;
  }
  transport.request_drain();
  transport.run();
  EXPECT_EQ(transport.closing_count(), 0u);
  EXPECT_TRUE(server.drained());
  EXPECT_EQ(server.stats().answered, 200u);
  EXPECT_EQ(transport.stats().closed, 200u);

  // The session layer reused the freed ids instead of growing.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_LE(transport.adopt(fds[0], 1), ConnId{1});
  ::close(fds[1]);
}

TEST(FrontTransport, ThrottledClientStaysThrottledAcrossReconnects) {
  if (!socketpair_available()) GTEST_SKIP() << "no socketpair here";
  World world(1);
  FrontConfig config;
  config.client_rate_qps = 10;  // one token per 100 ms
  config.client_burst = 2;
  FrontServer server(&world.oracle, &world.store, config);
  ManualClock clock;
  TransportConfig tconfig;
  tconfig.auto_pump = false;
  SocketServer transport(&server, &clock, tconfig);
  constexpr std::uint64_t kClient = 7;

  // The first connection spends the burst and is throttled once; the
  // second, under the same client id a few ms later, finds the bucket
  // still empty.
  std::uint64_t id = 1;
  for (const int requests : {3, 1}) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    (void)transport.adopt(fds[0], kClient);
    BlockingClient peer;
    peer.adopt(fds[1]);
    std::vector<std::uint8_t> wire;
    for (int k = 0; k < requests; ++k) {
      const auto frame = request_bytes(id++, kClient, "DE");
      wire.insert(wire.end(), frame.begin(), frame.end());
    }
    const std::uint64_t seen = transport.stats().bytes_in;
    peer.send(wire);
    poll_until(
        transport,
        [&] { return transport.stats().bytes_in >= seen + wire.size(); },
        "requests");
    if (HasFatalFailure()) return;
    clock.advance_by(1'000);
    transport.pump_session();
    std::vector<std::uint8_t> got;
    while (count_frames(got, FrameType::kResponse) +
               count_frames(got, FrameType::kError) <
           static_cast<std::size_t>(requests)) {
      (void)transport.poll(0);
      const auto raw = peer.recv_some(2'000);
      ASSERT_FALSE(raw.empty()) << "no answer for " << requests;
      got.insert(got.end(), raw.begin(), raw.end());
    }
    EXPECT_EQ(count_errors(got, ErrorCode::kThrottled), 1u)
        << requests << " requests";
    peer.close();
    poll_until(
        transport, [&] { return transport.connection_count() == 0; },
        "close");
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(server.stats().shed_throttled, 2u);
}

// --------------------------------------------------------------- drain

TEST(FrontTransport, GracefulDrainFlushesEverythingThenCloses) {
  if (!sockets_available()) GTEST_SKIP() << "no loopback sockets here";
  World world(1);
  FrontServer server(&world.oracle, &world.store, FrontConfig{});
  MonotonicClock clock;  // drain needs real time: batches must complete
  SocketServer transport(&server, &clock, TransportConfig{});
  const std::uint16_t port = transport.listen();

  BlockingClient a;
  a.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 1; },
      "accept a");
  BlockingClient b;
  b.connect(port);
  poll_until(
      transport, [&] { return transport.connection_count() == 2; },
      "accept b");
  if (HasFatalFailure()) return;

  std::size_t wire_bytes = 0;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const auto req_a = request_bytes(id, 0, "DE");
    const auto req_b = request_bytes(100 + id, 1, "FR");
    a.send(req_a);
    b.send(req_b);
    wire_bytes += req_a.size() + req_b.size();
  }
  // Make sure every request reached the server before draining — drain
  // means "finish what you have", not "guess what is still in the
  // kernel's buffers".
  poll_until(
      transport, [&] { return transport.stats().bytes_in >= wire_bytes; },
      "requests never arrived");
  if (HasFatalFailure()) return;
  // Drain from here on: the loop must finish the queued batches, flush
  // both outboxes, close both connections, and return.
  transport.request_drain();
  transport.run();

  EXPECT_TRUE(transport.drained());
  EXPECT_TRUE(server.drained());
  EXPECT_EQ(transport.connection_count(), 0u);
  EXPECT_EQ(server.stats().answered, 8u);
  EXPECT_EQ(transport.stats().closed, 2u);

  // Every response was flushed before the close: each client reads 4
  // whole responses, then a clean EOF.
  for (BlockingClient* c : {&a, &b}) {
    std::vector<std::uint8_t> got;
    while (!c->eof()) {
      const auto raw = c->recv_some(2'000);
      if (raw.empty() && !c->eof()) break;
      got.insert(got.end(), raw.begin(), raw.end());
    }
    EXPECT_TRUE(c->eof());
    EXPECT_EQ(count_frames(got, FrameType::kResponse), 4u);
  }
}

}  // namespace
}  // namespace shears::front
