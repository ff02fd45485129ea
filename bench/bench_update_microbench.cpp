// Microbenchmarks (google-benchmark): crypto primitives and whole channel
// updates. Backs the paper's "unlimited lifetime given at most one update
// per second" claim — a full Daric update must take far less than 1 s.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cstdint>
#include <memory>
#include <vector>

#include "src/crypto/ecdsa.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/daric/protocol.h"
#include "src/sim/faults/drill.h"

namespace {

using namespace daric;  // NOLINT

// Host-speed anchor of tools/check.sh --bench: a dependent chain of 128-bit
// multiplies with a load from a 1 MiB table on every step, the kernel of
// perfbench's speed_factor(). It calls nothing in the library, so a change
// to the code under test cannot move it; the host's clock, caches and
// neighbours do, and the gates divide them out with it.
void BM_HostAnchor(benchmark::State& state) {
  constexpr std::size_t kWords = std::size_t{1} << 17;  // 1 MiB of words
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kWords);
    std::uint64_t s = 1;
    for (std::uint64_t& w : t) {
      s += 0x9e3779b97f4a7c15ull;
      w = (s ^ (s >> 31)) * 0xbf58476d1ce4e5b9ull;
    }
    return t;
  }();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      const unsigned __int128 m = static_cast<unsigned __int128>(x) * 0xd1342543de82ef95ull;
      x = static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
      x += table[x & (kWords - 1)];
    }
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_HostAnchor);

void BM_SchnorrSign(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_sign(kp.sk, msg));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  const Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_verify(kp.pk, msg, sig));
}
BENCHMARK(BM_SchnorrVerify);

void BM_EcdsaSign(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ecdsa_sign(kp.sk, msg));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  const Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ecdsa_verify(kp.pk, msg, sig));
}
BENCHMARK(BM_EcdsaVerify);

channel::ChannelParams bench_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

// One full channel update (all messages, signatures and verifications for
// both parties), on the engine the chaos drill builds for `p`. Throughput
// >> 1/s validates the unlimited-lifetime claim.
void channel_update_bench(benchmark::State& state, sim::faults::Protocol p,
                          const std::string& id) {
  sim::Environment env(2, crypto::schnorr_scheme());
  const std::unique_ptr<channel::Engine> ch = sim::faults::make_engine(p, env, bench_params(id));
  ch->create();
  Amount i = 0;
  for (auto _ : state) {
    ch->update({400'000 + (i % 1000), 600'000 - (i % 1000), {}});
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_DaricUpdate(benchmark::State& state) {
  channel_update_bench(state, sim::faults::Protocol::kDaric, "bench-daric");
}
BENCHMARK(BM_DaricUpdate)->Unit(benchmark::kMicrosecond);

void BM_EltooUpdate(benchmark::State& state) {
  channel_update_bench(state, sim::faults::Protocol::kEltoo, "bench-eltoo");
}
BENCHMARK(BM_EltooUpdate)->Unit(benchmark::kMicrosecond);

void BM_LightningUpdate(benchmark::State& state) {
  channel_update_bench(state, sim::faults::Protocol::kLightning, "bench-ln");
}
BENCHMARK(BM_LightningUpdate)->Unit(benchmark::kMicrosecond);

void BM_GeneralizedUpdate(benchmark::State& state) {
  channel_update_bench(state, sim::faults::Protocol::kGeneralized, "bench-gc");
}
BENCHMARK(BM_GeneralizedUpdate)->Unit(benchmark::kMicrosecond);

// Daric update with m HTLC outputs: ops stay flat, serialization grows.
void BM_DaricUpdateWithHtlcs(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  sim::Environment env(2, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, bench_params("bench-daric-m" + std::to_string(m)));
  ch.create();
  const auto secret = channel::make_htlc_secret("bench-h");
  channel::StateVec st{500'000, 500'000, {}};
  for (int k = 0; k < m; ++k) {
    st.htlcs.push_back({1'000, secret.payment_hash, k % 2 == 0, 5});
    st.to_a -= 1'000;
  }
  Amount i = 0;
  for (auto _ : state) {
    channel::StateVec next = st;
    next.to_a -= i % 100;
    next.to_b += i % 100;
    ch.update(next);
    ++i;
  }
  // items_per_second == updates/s, uniform with every other *Update* bench.
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_DaricUpdateWithHtlcs)->Arg(0)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

DARIC_BENCHMARK_MAIN();
