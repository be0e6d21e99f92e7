#ifndef TDG_UTIL_STOPWATCH_H_
#define TDG_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace tdg::util {

/// Microseconds since a process-wide monotonic origin (established on the
/// first call). Shared timestamp base for log prefixes and trace events so
/// they line up in one timeline.
inline int64_t MonotonicMicros() {
  static const std::chrono::steady_clock::time_point kOrigin =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

/// Milliseconds since the unix epoch (wall clock: comparable across
/// processes and machines, and with file mtimes, where a monotonic origin
/// means nothing).
inline int64_t UnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch with microsecond resolution. Starts running on
/// construction; `Restart()` resets the origin. Supports Pause()/Resume()
/// so a caller can exclude sections from the accumulated time, and Lap()
/// for split times; while never paused, ElapsedMicros() behaves exactly as
/// it always did (time since construction or the last Restart()).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() {
    accumulated_ = 0;
    lap_mark_ = 0;
    running_ = true;
    start_ = Clock::now();
  }

  /// Stops accumulating. No-op when already paused.
  void Pause() {
    if (!running_) return;
    accumulated_ += SinceStartMicros();
    running_ = false;
  }

  /// Starts accumulating again. No-op when already running.
  void Resume() {
    if (running_) return;
    running_ = true;
    start_ = Clock::now();
  }

  bool running() const { return running_; }

  /// Total accumulated running time (pauses excluded).
  int64_t TotalMicros() const {
    return accumulated_ + (running_ ? SinceStartMicros() : 0);
  }

  /// Accumulated running time since the previous Lap() (or construction /
  /// Restart()); advances the lap marker.
  int64_t Lap() {
    int64_t total = TotalMicros();
    int64_t lap = total - lap_mark_;
    lap_mark_ = total;
    return lap;
  }

  /// Elapsed time since construction or the last Restart(). Alias of
  /// TotalMicros(), kept for the original API.
  int64_t ElapsedMicros() const { return TotalMicros(); }

  double ElapsedMillis() const {
    return static_cast<double>(ElapsedMicros()) / 1e3;
  }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;

  int64_t SinceStartMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

  Clock::time_point start_;
  int64_t accumulated_ = 0;  // completed (unpaused) running time
  int64_t lap_mark_ = 0;     // TotalMicros() at the previous Lap()
  bool running_ = true;
};

}  // namespace tdg::util

#endif  // TDG_UTIL_STOPWATCH_H_
