#include "probes.h"

#include "src/obs/span.h"

namespace perfbench {

using namespace daric;  // NOLINT

void Trace::attach_first(sim::Environment& env) {
  env_ = &env;
  hooked_round_ = env.now();
  mark();
  env.set_fault_injector(&injector_);
  // Same delay as the default post (Δ); the policy only marks the moment.
  env.ledger().set_delay_policy([this](const tx::Transaction&, Round delta) {
    mark();
    return delta;
  });
  env.add_round_hook([this] {
    const std::int64_t t = now_ns();
    L.ledger_round.add(t - mark_);
    hooked_round_ = env_->now();
    first_hook_end_ = now_ns();
  });
}

void Trace::attach_last(sim::Environment& env) {
  env.add_round_hook([this] {
    L.sweep.add(now_ns() - first_hook_end_);
    mark();
  });
}

std::unique_ptr<sim::Environment> make_env(Round delta, Trace* trace,
                                           std::unique_ptr<TimedScheme>& scheme) {
  if (!trace) return std::make_unique<sim::Environment>(delta, crypto::schnorr_scheme());
  scheme = std::make_unique<TimedScheme>(crypto::schnorr_scheme(), *trace);
  auto env = std::make_unique<sim::Environment>(delta, *scheme);
  trace->attach_first(*env);
  return env;
}

void TimedScheme::account(Acc& acc, std::int64_t t0, std::uint64_t items) const {
  const std::int64_t t1 = now_ns();
  acc.add(t1 - t0, items);
  if (t_.in_ledger_phase()) {
    t_.L.ledger_crypto.add(t1 - t0, items);
  } else {
    t_.mark();
  }
}

Bytes TimedScheme::sign(const crypto::Scalar& sk, const Hash256& msg) const {
  const std::int64_t t0 = now_ns();
  Bytes r = inner_.sign(sk, msg);
  account(t_.L.sign, t0, 1);
  return r;
}

Bytes TimedScheme::sign_with(const crypto::KeyPair& kp, const Hash256& msg) const {
  const std::int64_t t0 = now_ns();
  Bytes r = inner_.sign_with(kp, msg);
  account(t_.L.sign, t0, 1);
  return r;
}

bool TimedScheme::verify(const crypto::Point& pk, const Hash256& msg, BytesView sig) const {
  const std::int64_t t0 = now_ns();
  const bool r = inner_.verify(pk, msg, sig);
  account(t_.L.verify, t0, 1);
  return r;
}

bool TimedScheme::verify_cached(const crypto::PrecomputedPoint& pre, const Hash256& msg,
                                BytesView sig) const {
  const std::int64_t t0 = now_ns();
  const bool r = inner_.verify_cached(pre, msg, sig);
  account(t_.L.verify, t0, 1);
  return r;
}

bool TimedScheme::verify_batch(std::span<const crypto::SigBatchItem> items) const {
  const std::int64_t t0 = now_ns();
  const bool r = inner_.verify_batch(items);
  account(t_.L.batch, t0, items.size());
  return r;
}

void TimedBackend::append(BytesView data) {
  t_.L.append.add(0, data.size());
  inner_.append(data);
}

void TimedBackend::sync() {
  t_.L.sync.add(0);
  inner_.sync();
}

void TimedDurability::persist(const daricch::DaricParty& p) {
  const std::int64_t t0 = now_ns();
  inner_.persist(p);
  t_.L.persist.add(now_ns() - t0);
}

std::int64_t span_ns(const std::string& name) { return obs::span_histogram(name).sum(); }

}  // namespace perfbench
