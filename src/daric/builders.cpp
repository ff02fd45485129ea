#include "src/daric/builders.h"

#include <stdexcept>

namespace daric::daricch {

FundingTemplate gen_fund(const tx::OutPoint& tid_a, const tx::OutPoint& tid_b, Amount cash,
                         const DaricPubKeys& a, const DaricPubKeys& b) {
  FundingTemplate f;
  f.fund_script = script::multisig_2of2(a.main, b.main);
  f.body.inputs = {{tid_a}, {tid_b}};
  f.body.nlocktime = 0;
  f.body.outputs = {{cash, tx::Condition::p2wsh(f.fund_script)}};
  return f;
}

CommitPair gen_commit(const tx::OutPoint& fund_outpoint, Amount cash, const DaricPubKeys& a,
                      const DaricPubKeys& b, std::uint32_t state,
                      const channel::ChannelParams& p) {
  CommitPair c;
  const std::uint32_t cltv = p.s0 + state;
  const auto csv = static_cast<std::uint32_t>(p.t_punish);
  c.script_a = commit_script(a.sp, b.sp, a.rv, b.rv, cltv, csv);
  c.script_b = commit_script(a.sp, b.sp, a.rv2, b.rv2, cltv, csv);

  // Sec. 8 ("Compatibility with P2WSH transactions"): the state number is
  // encoded in the commit's nLockTime so the victim / watchtower can
  // reconstruct the output script of an arbitrary published commit.
  c.body_a.inputs = {{fund_outpoint}};
  c.body_a.nlocktime = cltv;
  c.body_a.outputs = {{cash, tx::Condition::p2wsh(c.script_a)}};

  c.body_b.inputs = {{fund_outpoint}};
  c.body_b.nlocktime = cltv;
  c.body_b.outputs = {{cash, tx::Condition::p2wsh(c.script_b)}};
  return c;
}

std::optional<CommitMatch> match_counterparty_commit(const tx::Transaction& spender,
                                                     sim::PartyId client, const DaricPubKeys& a,
                                                     const DaricPubKeys& b, std::uint32_t s0,
                                                     Round t_punish, std::uint32_t max_state) {
  if (spender.outputs.size() != 1 || spender.nlocktime < s0) return std::nullopt;
  const std::uint32_t j = spender.nlocktime - s0;
  if (j > max_state) return std::nullopt;
  const auto csv = static_cast<std::uint32_t>(t_punish);
  // A's commits are guarded by rv keys, B's by rv2 (Appendix B).
  script::Script guess = client == sim::PartyId::kA
                             ? commit_script(a.sp, b.sp, a.rv2, b.rv2, s0 + j, csv)  // TX^B_CM,j
                             : commit_script(a.sp, b.sp, a.rv, b.rv, s0 + j, csv);   // TX^A_CM,j
  if (spender.outputs[0].cond != tx::Condition::p2wsh(guess)) return std::nullopt;
  return CommitMatch{j, std::move(guess)};
}

tx::Transaction gen_split(const channel::StateVec& st, std::uint32_t state,
                          const channel::ChannelParams& p, const DaricPubKeys& a,
                          const DaricPubKeys& b) {
  tx::Transaction t;
  t.nlocktime = p.s0 + state;
  t.outputs = state_outputs(st, a.main, b.main);
  return t;  // floating: inputs bound later
}

tx::Transaction gen_revoke(BytesView payout_pk_main, Amount cash, std::uint32_t revoked_state,
                           const channel::ChannelParams& p) {
  tx::Transaction t;
  t.nlocktime = p.s0 + revoked_state;
  t.outputs = {{cash, tx::Condition::p2wpkh(payout_pk_main)}};
  return t;  // floating
}

tx::Transaction gen_fin_split(const tx::OutPoint& op, const channel::StateVec& st,
                              BytesView pk_a_main, BytesView pk_b_main) {
  tx::Transaction t;
  t.inputs = {{op}};
  t.nlocktime = 0;
  t.outputs = state_outputs(st, pk_a_main, pk_b_main);
  return t;
}

tx::Transaction gen_sweep(const tx::OutPoint& op, Amount cash, BytesView payout_pk) {
  tx::Transaction t;
  t.inputs = {{op}};
  t.nlocktime = 0;
  t.outputs = {{cash, tx::Condition::p2wpkh(payout_pk)}};
  return t;
}

void bind_floating(tx::Transaction& t, const tx::OutPoint& op) {
  t.inputs = {{op}};
  if (t.witnesses.size() < 1) t.witnesses.resize(1);
}

namespace {
void ensure_witness_slot(tx::Transaction& t, std::size_t input) {
  if (t.witnesses.size() <= input) t.witnesses.resize(input + 1);
}
}  // namespace

void attach_funding_witness(tx::Transaction& t, std::size_t input,
                            const script::Script& fund_script, Bytes sig_a, Bytes sig_b) {
  ensure_witness_slot(t, input);
  t.witnesses[input].stack = {Bytes{}, std::move(sig_a), std::move(sig_b)};
  t.witnesses[input].witness_script = fund_script;
}

void attach_split_witness(tx::Transaction& t, std::size_t input,
                          const script::Script& commit_script, Bytes sig_a, Bytes sig_b) {
  ensure_witness_slot(t, input);
  t.witnesses[input].stack = {Bytes{}, std::move(sig_a), std::move(sig_b), Bytes{}};
  t.witnesses[input].witness_script = commit_script;
}

void attach_revoke_witness(tx::Transaction& t, std::size_t input,
                           const script::Script& commit_script, Bytes sig_a, Bytes sig_b) {
  ensure_witness_slot(t, input);
  t.witnesses[input].stack = {Bytes{}, std::move(sig_a), std::move(sig_b), Bytes{1}};
  t.witnesses[input].witness_script = commit_script;
}

bool takes_revocation_branch(const tx::Transaction& t) {
  return !t.witnesses.empty() && !t.witnesses[0].stack.empty() &&
         t.witnesses[0].stack.back() == Bytes{1};
}

void attach_p2wpkh_witness(tx::Transaction& t, std::size_t input, Bytes sig, Bytes pubkey) {
  ensure_witness_slot(t, input);
  t.witnesses[input].stack = {std::move(sig), std::move(pubkey)};
  t.witnesses[input].witness_script.reset();
}

}  // namespace daric::daricch
