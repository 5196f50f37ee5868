#include "front/transport/blocking_client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "front/transport/socket_server.hpp"  // TransportError

namespace shears::front {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw TransportError(std::string("client: ") + what + ": " +
                       std::strerror(errno));
}

}  // namespace

BlockingClient::~BlockingClient() { close(); }

BlockingClient::BlockingClient(BlockingClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      eof_(other.eof_),
      buf_(std::move(other.buf_)) {}

BlockingClient& BlockingClient::operator=(BlockingClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    eof_ = other.eof_;
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void BlockingClient::connect(std::uint16_t port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("connect(127.0.0.1)");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  eof_ = false;
}

void BlockingClient::adopt(int fd) {
  close();
  fd_ = fd;
  eof_ = false;
}

void BlockingClient::send(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> BlockingClient::recv_some(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  while (true) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (ready == 0) return {};
    break;
  }
  if (buf_.empty()) buf_.resize(64 * 1024);
  while (true) {
    const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        eof_ = true;
        return {};
      }
      throw_errno("recv");
    }
    if (n == 0) {
      eof_ = true;
      return {};
    }
    return std::vector<std::uint8_t>(buf_.begin(), buf_.begin() + n);
  }
}

void BlockingClient::reset() {
  if (fd_ < 0) return;
  const linger hard{1, 0};
  (void)::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd_);
  fd_ = -1;
}

void BlockingClient::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

}  // namespace shears::front
