// The client half of the socket transport: a plain blocking TCP (or
// adopted socketpair) connection. Framing, retries and latency
// accounting stay in front::FrontClient — this class only moves bytes,
// which keeps the simulated and socket transports interchangeable
// behind the same client logic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace shears::front {

class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient();
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;
  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;

  /// Connects to 127.0.0.1:port; throws TransportError on failure.
  void connect(std::uint16_t port);
  /// Takes ownership of an already-connected stream fd.
  void adopt(int fd);

  /// Writes the whole buffer, blocking through partial writes.
  void send(std::span<const std::uint8_t> bytes);

  /// Blocks up to `timeout_ms` for data; returns exactly the bytes that
  /// arrived (empty on timeout or EOF — check eof()). Receives into a
  /// buffer reused across calls.
  [[nodiscard]] std::vector<std::uint8_t> recv_some(int timeout_ms);

  /// Closes abruptly: SO_LINGER(0) turns the close into a TCP RST — the
  /// malicious-peer tests use this to hit the server mid-response.
  void reset();
  void close();

  [[nodiscard]] bool eof() const noexcept { return eof_; }
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  bool eof_ = false;
  std::vector<std::uint8_t> buf_;  ///< receive buffer, sized on first use
};

}  // namespace shears::front
