// The clock seam between the session layer and its transports.
//
// FrontServer's entire state machine runs on integer-microsecond
// timestamps (front::SimTime) passed in by the caller. That is what
// makes the simulated transport deterministic — and what lets the real
// socket transport reuse the session layer unchanged: the epoll loop
// reads its timestamps from a Clock instead of a traffic script.
//
// Two implementations, told apart by measures_wall_time():
//
//   * ManualClock — time advances only when the owner says so. The
//     differential transport tests drive the socket server with one of
//     these, so every admission, batch close and deadline decision
//     happens at exactly the recorded request stream's timestamps and
//     the simulated session replays as the byte-exact oracle for the
//     socket path (real TCP delivery jitter never reaches the session
//     layer's notion of time). A batch served on it completes at the
//     FrontConfig service model's time.
//   * MonotonicClock — CLOCK_MONOTONIC microseconds since construction,
//     the production adapter. Loopback benches share one instance
//     between server and clients so deadlines and latency measurements
//     live on a single timeline. A batch served on it completes when the
//     oracle actually returns: the session layer reads this clock after
//     the call instead of adding the modelled service time.
#pragma once

#include <chrono>
#include <cstdint>

#include "front/frame.hpp"

namespace shears::front {

class Clock {
 public:
  virtual ~Clock() = default;
  /// Microseconds since this clock's epoch. Must never go backwards.
  [[nodiscard]] virtual SimTime now() = 0;
  /// True when now() follows real elapsed time, so a reading taken after
  /// a piece of work is that work's measured end. A property of the
  /// clock's type, never of configuration.
  [[nodiscard]] virtual bool measures_wall_time() const noexcept = 0;
};

/// Time under the caller's explicit control; starts at 0.
class ManualClock final : public Clock {
 public:
  [[nodiscard]] SimTime now() override { return now_; }
  [[nodiscard]] bool measures_wall_time() const noexcept override {
    return false;
  }

  /// Moves time forward to `t`; ignores moves backwards (the session
  /// layer's "now must not go backwards" contract stays intact even if
  /// two schedules interleave carelessly).
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }
  void advance_by(SimTime d) { now_ += d; }

 private:
  SimTime now_ = 0;
};

/// Wall time: steady-clock microseconds since construction.
class MonotonicClock final : public Clock {
 public:
  MonotonicClock() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] SimTime now() override {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
  [[nodiscard]] bool measures_wall_time() const noexcept override {
    return true;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace shears::front
