// Layer probes for the traced run.
//
// Everything here times calls into a layer's PUBLIC API from outside the
// library: a forwarding SignatureScheme, a forwarding DurabilityHook and
// StorageBackend, round hooks registered first and last on an Environment,
// and a pass-through fault injector that marks message sends. Untraced runs
// build none of these objects, so the end-to-end numbers see the plain
// library.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "src/crypto/sig_scheme.h"
#include "src/daric/protocol.h"
#include "src/sim/environment.h"
#include "src/store/backend.h"
#include "src/store/channel_store.h"

namespace perfbench {

using daric::Amount;
using daric::Round;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has run, in ns. The end-to-end timings use
/// it instead of wall time: time the thread spends waiting for a CPU (other
/// tenants of a shared host, hypervisor steal) does not count.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Calls, busy nanoseconds and work items accumulated at one boundary.
struct Acc {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::uint64_t items = 0;

  void add(std::int64_t dt, std::uint64_t n = 0) {
    ++calls;
    ns += dt;
    items += n;
  }
};

/// Per-layer totals of one traced run (one thread: plain fields).
struct Layers {
  Acc sign, verify, batch;
  Acc ledger_crypto;          // scheme time spent inside the ledger phase
  Acc ledger_round, sweep;    // Environment::advance_round split in two
  Acc persist, append, sync;  // channel-store write path
  Acc tower_watch, tower_round;
  Acc create, update;
  Acc route, lock, settle;

  Layers& operator+=(const Layers& o) {
    static constexpr Acc Layers::*kAll[] = {
        &Layers::sign,         &Layers::verify,  &Layers::batch,       &Layers::ledger_crypto,
        &Layers::ledger_round, &Layers::sweep,   &Layers::persist,     &Layers::append,
        &Layers::sync,         &Layers::tower_watch, &Layers::tower_round, &Layers::create,
        &Layers::update,       &Layers::route,   &Layers::lock,        &Layers::settle};
    for (Acc Layers::*m : kAll) {
      (this->*m).calls += (o.*m).calls;
      (this->*m).ns += (o.*m).ns;
      (this->*m).items += (o.*m).items;
    }
    return *this;
  }
};

/// Runs `f`, adding its wall time to `acc` when tracing (acc != nullptr).
template <class F>
auto timed(Acc* acc, F&& f) {
  if (acc == nullptr) return f();
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc->add(now_ns() - t0);
  } else {
    auto r = f();
    acc->add(now_ns() - t0);
    return r;
  }
}

/// Mean of an accumulator's time per call, in µs (0 when never called).
inline double mean_us(const Acc& a) {
  return a.calls == 0 ? 0.0 : static_cast<double>(a.ns) / 1e3 / static_cast<double>(a.calls);
}

/// The traced run's shared state. `mark` is the latest moment the benchmark
/// loop or a party was known to be busy outside a ledger round (a message send, a
/// ledger post, a crypto call, the end of the previous round's hooks); the
/// ledger part of a round is the time from that mark to the first hook.
class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;  // hooks and the injector hold `this`
  Trace& operator=(const Trace&) = delete;

  Layers L;

  /// Registers the first round hook and the send/post markers on `env`.
  /// Call right after constructing the environment, before any engine
  /// registers its own hooks.
  void attach_first(daric::sim::Environment& env);
  /// Registers the last round hook. Call after every engine hook exists.
  void attach_last(daric::sim::Environment& env);

  /// True while `env_` is inside Environment::advance_round's ledger part
  /// (the ledger clock moved but the first hook has not run yet).
  bool in_ledger_phase() const { return env_ != nullptr && env_->now() != hooked_round_; }
  void mark() { mark_ = now_ns(); }

 private:
  class MarkInjector : public daric::sim::FaultInjector {
   public:
    explicit MarkInjector(Trace& t) : t_(t) {}
    daric::sim::MessageAction on_message(Round, daric::sim::PartyId,
                                         const std::string&) override {
      t_.mark();
      return {};
    }
    Round post_delay(Round, Round delta) override { return delta; }

   private:
    Trace& t_;
  };

  const daric::sim::Environment* env_ = nullptr;
  Round hooked_round_ = 0;
  std::int64_t mark_ = 0;
  std::int64_t first_hook_end_ = 0;
  MarkInjector injector_{*this};
};

/// Forwarding signature scheme that times every operation by kind. Calls made
/// during the ledger phase also count as ledger verification time.
class TimedScheme final : public daric::crypto::SignatureScheme {
 public:
  TimedScheme(const daric::crypto::SignatureScheme& inner, Trace& t) : inner_(inner), t_(t) {}

  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  daric::Bytes sign(const daric::crypto::Scalar& sk, const daric::Hash256& msg) const override;
  bool verify(const daric::crypto::Point& pk, const daric::Hash256& msg,
              daric::BytesView sig) const override;
  daric::Bytes sign_with(const daric::crypto::KeyPair& kp,
                         const daric::Hash256& msg) const override;
  bool verify_cached(const daric::crypto::PrecomputedPoint& pre, const daric::Hash256& msg,
                     daric::BytesView sig) const override;
  bool supports_adaptor() const override { return inner_.supports_adaptor(); }
  bool supports_batch_verify() const override { return inner_.supports_batch_verify(); }
  bool verify_batch(std::span<const daric::crypto::SigBatchItem> items) const override;

 private:
  void account(Acc& acc, std::int64_t t0, std::uint64_t items) const;

  const daric::crypto::SignatureScheme& inner_;
  Trace& t_;
};

/// A workload's environment: on the plain Schnorr scheme, or, when tracing,
/// on a TimedScheme (stored in `scheme`, which must outlive the
/// environment) with the trace's first round hook attached.
std::unique_ptr<daric::sim::Environment> make_env(Round delta, Trace* trace,
                                                  std::unique_ptr<TimedScheme>& scheme);

/// Forwarding storage backend counting appended bytes and sync barriers.
class TimedBackend final : public daric::store::StorageBackend {
 public:
  TimedBackend(daric::store::StorageBackend& inner, Trace& t) : inner_(inner), t_(t) {}

  std::size_t size() const override { return inner_.size(); }
  void append(daric::BytesView data) override;
  void sync() override;
  daric::Bytes read(std::size_t off, std::size_t len) const override {
    return inner_.read(off, len);
  }
  void truncate(std::size_t new_size) override { inner_.truncate(new_size); }
  void replace(daric::BytesView contents) override { inner_.replace(contents); }

 private:
  daric::store::StorageBackend& inner_;
  Trace& t_;
};

/// Forwarding durability hook in front of a ChannelStore.
class TimedDurability final : public daric::daricch::DurabilityHook {
 public:
  TimedDurability(daric::store::ChannelStore& inner, Trace& t) : inner_(inner), t_(t) {}

  void persist(const daric::daricch::DaricParty& p) override;
  void closed(const daric::daricch::DaricParty& p) override { inner_.closed(p); }

 private:
  daric::store::ChannelStore& inner_;
  Trace& t_;
};

/// Sum of the OBS_SPAN histogram `name` in the profile registry, in ns.
std::int64_t span_ns(const std::string& name);

}  // namespace perfbench
