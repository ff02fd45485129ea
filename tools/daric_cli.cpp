// daric_cli — scenario runner for the Daric library.
//
//   daric_cli lifecycle [--updates N] [--delta D] [--t T] [--scheme ecdsa]
//   daric_cli punish    [--updates N] [--cheat-state K] [...]
//   daric_cli abort     [--abort-msg 1..6] [...]
//   daric_cli attack    [--channels N] [--timelock R] [--htlc A]
//   daric_cli table3    [--m M]
//
// Exit status is 0 when the scenario's expected outcome holds.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "src/analysis/eltoo_attack.h"
#include "src/costmodel/table3.h"
#include "src/daric/protocol.h"

namespace {

using namespace daric;  // NOLINT
using sim::PartyId;

struct Options {
  std::string scenario;
  long updates = 4;
  long cheat_state = 0;
  long abort_msg = 3;
  long delta = 2;
  long t_punish = 6;
  long channels = 2;
  long timelock = 12;
  long htlc = 5'000;
  long m = 0;
  std::string scheme = "schnorr";
};

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.scenario = argv[1];
  const std::map<std::string, long*> longs = {
      {"--updates", &opt.updates},   {"--cheat-state", &opt.cheat_state},
      {"--abort-msg", &opt.abort_msg}, {"--delta", &opt.delta},
      {"--t", &opt.t_punish},        {"--channels", &opt.channels},
      {"--timelock", &opt.timelock}, {"--htlc", &opt.htlc},
      {"--m", &opt.m},
  };
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--scheme") {
      opt.scheme = argv[i + 1];
      continue;
    }
    const auto it = longs.find(key);
    if (it == longs.end()) {
      std::fprintf(stderr, "unknown option: %s\n", key.c_str());
      return false;
    }
    *it->second = std::strtol(argv[i + 1], nullptr, 10);
  }
  return true;
}

const crypto::SignatureScheme& scheme_of(const Options& opt) {
  if (opt.scheme == "ecdsa") return crypto::ecdsa_scheme();
  return crypto::schnorr_scheme();
}

channel::ChannelParams params_of(const Options& opt) {
  channel::ChannelParams p;
  p.id = "cli";
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = opt.t_punish;
  return p;
}

int run_lifecycle(const Options& opt) {
  sim::Environment env(opt.delta, scheme_of(opt));
  daricch::DaricChannel ch(env, params_of(opt));
  if (!ch.create()) return 1;
  for (long i = 1; i <= opt.updates; ++i) {
    ch.update({500'000 - i * 1'000, 500'000 + i * 1'000, {}});
    std::printf("update %ld -> state %u (A=%lld B=%lld), storage %zu B\n", i,
                ch.party(PartyId::kA).state_number(),
                static_cast<long long>(ch.party(PartyId::kA).state().to_a),
                static_cast<long long>(ch.party(PartyId::kA).state().to_b),
                ch.party(PartyId::kA).storage_bytes());
  }
  ch.cooperative_close();
  std::printf("closed: %s\n",
              channel::outcome_name(ch.party(PartyId::kA).outcome()));
  return ch.party(PartyId::kA).outcome() == daricch::CloseOutcome::kCooperative ? 0 : 1;
}

int run_punish(const Options& opt) {
  sim::Environment env(opt.delta, scheme_of(opt));
  daricch::DaricChannel ch(env, params_of(opt));
  if (!ch.create()) return 1;
  for (long i = 1; i <= opt.updates; ++i)
    ch.update({500'000 - i * 1'000, 500'000 + i * 1'000, {}});
  std::printf("A publishes revoked commit of state %ld (latest is %u)\n", opt.cheat_state,
              ch.party(PartyId::kA).state_number());
  const Round start = env.now();
  ch.publish_old_commit(PartyId::kA, static_cast<std::uint32_t>(opt.cheat_state));
  ch.run_until_closed();
  std::printf("B's outcome: %s after %lld rounds\n",
              channel::outcome_name(ch.party(PartyId::kB).outcome()),
              static_cast<long long>(*ch.party(PartyId::kB).closed_round() - start));
  return ch.party(PartyId::kB).outcome() == daricch::CloseOutcome::kPunished ? 0 : 1;
}

int run_abort(const Options& opt) {
  sim::Environment env(opt.delta, scheme_of(opt));
  daricch::DaricChannel ch(env, params_of(opt));
  if (!ch.create()) return 1;
  ch.update({450'000, 550'000, {}});
  auto& silent =
      opt.abort_msg % 2 == 1 ? ch.party(PartyId::kA) : ch.party(PartyId::kB);
  silent.behavior.abort_update_before_msg = static_cast<int>(opt.abort_msg);
  std::printf("%s goes silent before update message %ld...\n",
              sim::party_name(silent.id()), opt.abort_msg);
  const bool updated = ch.update({350'000, 650'000, {}});
  std::printf("update %s; A closed=%d B closed=%d\n", updated ? "completed?!" : "aborted",
              !ch.party(PartyId::kA).channel_open(), !ch.party(PartyId::kB).channel_open());
  return !updated && !ch.party(PartyId::kA).channel_open() ? 0 : 1;
}

int run_attack(const Options& opt) {
  const auto r = analysis::simulate_delay_attack(
      static_cast<int>(opt.channels), opt.timelock, opt.htlc, {1.0, 3, 1});
  std::printf("delay txs %d, victim rejections %d, blocked %lld rounds, past timelock: %s\n",
              r.delay_txs_confirmed, r.victim_replacements_rejected,
              static_cast<long long>(r.victim_blocked_rounds),
              r.victim_blocked_past_timelock ? "yes" : "no");
  const auto eco = analysis::analyze_delay_attack({});
  std::printf("paper-scale economics: %d channels/tx, %d delay txs, profit %lld sat\n",
              eco.channels_per_delay_tx, eco.delay_txs_before_expiry,
              static_cast<long long>(eco.profit));
  return r.victim_blocked_past_timelock ? 0 : 1;
}

int run_table3(const Options& opt) {
  costmodel::print_table3(std::cout, static_cast<int>(opt.m));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: daric_cli <lifecycle|punish|abort|attack|table3> [options]\n"
                 "  --updates N --cheat-state K --abort-msg 1..6 --delta D --t T\n"
                 "  --channels N --timelock R --htlc A --m M --scheme schnorr|ecdsa\n");
    return 2;
  }
  if (opt.scenario == "lifecycle") return run_lifecycle(opt);
  if (opt.scenario == "punish") return run_punish(opt);
  if (opt.scenario == "abort") return run_abort(opt);
  if (opt.scenario == "attack") return run_attack(opt);
  if (opt.scenario == "table3") return run_table3(opt);
  std::fprintf(stderr, "unknown scenario: %s\n", opt.scenario.c_str());
  return 2;
}
