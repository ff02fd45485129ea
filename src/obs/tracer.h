// The event tracer: a thread-safe fan-out point between instrumentation
// sites and sinks, with a bounded in-memory ring buffer of recent events.
//
// Cost model: the tracer is DISABLED by default (the "null sink"), and
// emit() bails on one relaxed atomic load before touching any of its
// arguments' allocations. Instrumentation sites that would build strings
// for attributes must therefore guard with `if (tracer.enabled())` so a
// disabled tracer costs one branch — the property the overhead gate over
// BENCH_update_microbench.json checks.
//
// When enabled, every event gets a process-wide-per-tracer monotone `seq`,
// is appended to the ring (oldest evicted beyond the capacity) and fanned
// out to each registered sink under a single mutex, so sinks observe events
// in one global order monotone in (round, seq).
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "src/obs/event.h"

namespace daric::obs {

/// Streaming consumer of events. Sinks are non-owning: the caller keeps
/// them alive for as long as they are registered.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& e) = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Ring-only capture (no sink). add_sink() also enables.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Registers a non-owning sink and enables the tracer.
  void add_sink(Sink* sink);

  /// Assigns seq, appends to the ring and fans out to sinks. No-op (single
  /// atomic load) while disabled. The round/kind/etc. convenience overload
  /// spares call sites the brace ceremony.
  void emit(Event e);
  void emit(std::int64_t round, EventKind kind, std::string engine, std::string channel,
            std::string party, std::vector<Attr> attrs = {});

  /// Copy of the retained ring, oldest first.
  std::vector<Event> ring_snapshot() const;
  std::uint64_t emitted() const { return next_seq_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex mu_;
  /// Events retained in memory, oldest evicted first.
  static constexpr std::size_t kRingCapacity = 65536;
  std::deque<Event> ring_;
  std::vector<Sink*> sinks_;
};

}  // namespace daric::obs
