#include "src/daric/persistence.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/util/serialize.h"

namespace daric::daricch {

using sim::PartyId;

namespace {

// --- decodable encodings (unlike the consensus wire format, these must
// round-trip the structured script representation) ------------------------
//
// The readers never trust a length or enum byte: every element count is
// bounded by the bytes actually left in the blob and every discriminant is
// range-checked, so a truncated or bit-flipped snapshot throws instead of
// allocating unbounded memory or fabricating out-of-range enum values.

[[noreturn]] void corrupt(const std::string& what) {
  throw std::invalid_argument("corrupt snapshot: " + what);
}

/// Reads an element count whose elements each occupy at least
/// `min_item_bytes` of the remaining blob.
std::uint64_t read_count(Reader& r, std::size_t min_item_bytes, const char* what) {
  const std::uint64_t n = r.varint();
  if (min_item_bytes == 0) min_item_bytes = 1;
  if (n > r.remaining() / min_item_bytes) corrupt(std::string("implausible ") + what + " count");
  return n;
}

script::Op read_op(Reader& r) {
  const auto op = static_cast<script::Op>(r.u8());
  switch (op) {
    case script::Op::OP_0:
    case script::Op::OP_1:
    case script::Op::OP_2:
    case script::Op::OP_3:
    case script::Op::OP_16:
    case script::Op::OP_IF:
    case script::Op::OP_NOTIF:
    case script::Op::OP_ELSE:
    case script::Op::OP_ENDIF:
    case script::Op::OP_VERIFY:
    case script::Op::OP_RETURN:
    case script::Op::OP_DROP:
    case script::Op::OP_DUP:
    case script::Op::OP_EQUAL:
    case script::Op::OP_EQUALVERIFY:
    case script::Op::OP_SHA256:
    case script::Op::OP_HASH160:
    case script::Op::OP_HASH256:
    case script::Op::OP_CHECKSIG:
    case script::Op::OP_CHECKSIGVERIFY:
    case script::Op::OP_CHECKMULTISIG:
    case script::Op::OP_CHECKMULTISIGVERIFY:
    case script::Op::OP_CHECKLOCKTIMEVERIFY:
    case script::Op::OP_CHECKSEQUENCEVERIFY:
    case script::Op::PUSH:
    case script::Op::NUM4:
      return op;
  }
  corrupt("unknown script opcode");
}

bool read_bool(Reader& r, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > 1) corrupt(std::string("bad ") + what + " flag");
  return v == 1;
}

}  // namespace

// Shared with the durable store (declared in persistence.h).
namespace snapio {

void write_script(Writer& w, const script::Script& s) {
  w.varint(s.instructions().size());
  for (const script::Instr& in : s.instructions()) {
    w.u8(static_cast<std::uint8_t>(in.op));
    if (in.op == script::Op::PUSH) w.var_bytes(in.data);
    if (in.op == script::Op::NUM4) w.u32le(in.num);
  }
}

script::Script read_script(Reader& r) {
  script::Script s;
  const std::uint64_t n = read_count(r, 1, "instruction");
  for (std::uint64_t i = 0; i < n; ++i) {
    const script::Op op = read_op(r);
    if (op == script::Op::PUSH) {
      s.push(r.var_bytes());
    } else if (op == script::Op::NUM4) {
      s.num4(r.u32le());
    } else {
      s.op(op);
    }
  }
  return s;
}

void write_outpoint(Writer& w, const tx::OutPoint& op) {
  w.bytes(op.txid.view());
  w.u32le(op.vout);
}

tx::OutPoint read_outpoint(Reader& r) {
  tx::OutPoint op;
  op.txid = Hash256::from_bytes(r.bytes(32));
  op.vout = r.u32le();
  return op;
}

void write_tx(Writer& w, const tx::Transaction& t) {
  w.u32le(t.version);
  w.varint(t.inputs.size());
  for (const tx::TxIn& in : t.inputs) write_outpoint(w, in.prevout);
  w.u32le(t.nlocktime);
  w.varint(t.outputs.size());
  for (const tx::Output& out : t.outputs) {
    w.u64le(static_cast<std::uint64_t>(out.cash));
    w.u8(out.cond.type == tx::Condition::Type::kP2WSH ? 0 : 1);
    w.var_bytes(out.cond.program);
  }
  w.varint(t.witnesses.size());
  for (const tx::Witness& wit : t.witnesses) {
    w.varint(wit.stack.size());
    for (const Bytes& el : wit.stack) w.var_bytes(el);
    w.u8(wit.witness_script ? 1 : 0);
    if (wit.witness_script) write_script(w, *wit.witness_script);
  }
}

tx::Transaction read_tx(Reader& r) {
  tx::Transaction t;
  t.version = r.u32le();
  const std::uint64_t nin = read_count(r, 36, "input");
  for (std::uint64_t i = 0; i < nin; ++i) t.inputs.push_back({read_outpoint(r)});
  t.nlocktime = r.u32le();
  const std::uint64_t nout = read_count(r, 10, "output");
  for (std::uint64_t i = 0; i < nout; ++i) {
    tx::Output out;
    out.cash = static_cast<Amount>(r.u64le());
    out.cond.type =
        read_bool(r, "condition type") ? tx::Condition::Type::kP2WPKH
                                       : tx::Condition::Type::kP2WSH;
    out.cond.program = r.var_bytes();
    const std::size_t expect = out.cond.type == tx::Condition::Type::kP2WSH ? 32 : 20;
    if (out.cond.program.size() != expect) corrupt("bad witness program length");
    t.outputs.push_back(std::move(out));
  }
  const std::uint64_t nwit = read_count(r, 2, "witness");
  for (std::uint64_t i = 0; i < nwit; ++i) {
    tx::Witness wit;
    const std::uint64_t nel = read_count(r, 1, "witness element");
    for (std::uint64_t k = 0; k < nel; ++k) wit.stack.push_back(r.var_bytes());
    if (read_bool(r, "witness script")) wit.witness_script = read_script(r);
    t.witnesses.push_back(std::move(wit));
  }
  return t;
}

void write_pubkeys(Writer& w, const DaricPubKeys& p) {
  w.var_bytes(p.main);
  w.var_bytes(p.sp);
  w.var_bytes(p.rv);
  w.var_bytes(p.rv2);
}

DaricPubKeys read_pubkeys(Reader& r) {
  DaricPubKeys p;
  p.main = r.var_bytes();
  p.sp = r.var_bytes();
  p.rv = r.var_bytes();
  p.rv2 = r.var_bytes();
  return p;
}

}  // namespace snapio

using namespace snapio;

namespace {

void write_state(Writer& w, const channel::StateVec& st) {
  w.u64le(static_cast<std::uint64_t>(st.to_a));
  w.u64le(static_cast<std::uint64_t>(st.to_b));
  w.varint(st.htlcs.size());
  for (const channel::Htlc& h : st.htlcs) {
    w.u64le(static_cast<std::uint64_t>(h.cash));
    w.var_bytes(h.payment_hash);
    w.u8(h.offered_by_a ? 1 : 0);
    w.u32le(h.timeout);
  }
}

channel::StateVec read_state(Reader& r) {
  channel::StateVec st;
  st.to_a = static_cast<Amount>(r.u64le());
  st.to_b = static_cast<Amount>(r.u64le());
  const std::uint64_t n = read_count(r, 14, "HTLC");
  for (std::uint64_t i = 0; i < n; ++i) {
    channel::Htlc h;
    h.cash = static_cast<Amount>(r.u64le());
    h.payment_hash = r.var_bytes();
    h.offered_by_a = read_bool(r, "HTLC direction");
    h.timeout = r.u32le();
    st.htlcs.push_back(std::move(h));
  }
  return st;
}

}  // namespace

ChannelSnapshot snapshot_party(const DaricParty& p) {
  if (!p.channel_open()) throw std::logic_error("channel not open");
  ChannelSnapshot s;
  s.params = p.params_;
  s.id = p.id();
  s.fund_op = p.fund_op_;
  s.theta_sig = p.theta_sig_;
  s.pub_other = p.pub_other_;
  s.theta_state = p.sn_;  // Θ covers everything below the stable sn
  if (p.flag_ == channel::ChannelFlag::kStable) {
    s.sn = p.sn_;
    s.st = p.st_;
    s.cm_own = p.cm_own_;
    s.cm_own_script = p.cm_own_script_;
    s.cm_other_script = p.cm_other_script_;
    s.split_body = p.split_.body;
    s.split_sig_a = p.split_.sig_a;
    s.split_sig_b = p.split_.sig_b;
    return s;
  }
  if (!p.cm_own_new_ || !p.split_new_.complete())
    throw std::logic_error("mid-update snapshot needs the post-message-4 state");
  // Post-message-4 window: the party holds a fully-signed commit for sn+1
  // and the complete floating split, but its own revocation of sn has not
  // yet been externalized — so the snapshot advances Γ while Θ's coverage
  // stays at the old sn.
  s.sn = p.sn_ + 1;
  s.st = p.st_prime_;
  s.cm_own = *p.cm_own_new_;
  s.cm_own_script = p.cm_own_new_script_;
  s.cm_other_script = p.cm_other_new_script_;
  s.split_body = p.split_new_.body;
  s.split_sig_a = p.split_new_.sig_a;
  s.split_sig_b = p.split_new_.sig_b;
  return s;
}

void restore_party(DaricChannel& ch, PartyId who, const ChannelSnapshot& s) {
  DaricParty& p = ch.party(who);
  if (s.id != who) throw std::invalid_argument("snapshot belongs to the other party");
  if (s.params.id != p.params_.id) throw std::invalid_argument("snapshot of another channel");
  if (s.theta_state + 1 < s.sn) throw std::invalid_argument("snapshot Θ lags Γ by over a state");
  // The commit pair of the snapshot's state, rebuilt from the channel's keys.
  const bool is_a = who == PartyId::kA;
  const DaricPubKeys& peer = ch.party(sim::other(who)).pub();
  const CommitPair c = gen_commit(s.fund_op, p.params_.capacity(), is_a ? p.pub_own_ : peer,
                                  is_a ? peer : p.pub_own_, s.sn, p.params_);
  if (s.pub_other != peer || s.cm_own.txid() != (is_a ? c.body_a : c.body_b).txid() ||
      s.cm_own_script != (is_a ? c.script_a : c.script_b) ||
      s.cm_other_script != (is_a ? c.script_b : c.script_a))
    throw std::invalid_argument("snapshot commits disagree with the channel's keys");

  // Γ as the snapshot holds it; the crash lost everything else.
  p.fund_op_ = s.fund_op;
  p.pub_other_ = s.pub_other;
  p.sn_ = s.sn;
  p.st_ = s.st;
  p.cm_own_ = s.cm_own;
  p.cm_own_script_ = s.cm_own_script;
  p.cm_other_body_ = is_a ? c.body_b : c.body_a;
  p.cm_other_script_ = s.cm_other_script;
  p.split_ = {s.split_body, s.split_sig_a, s.split_sig_b};
  p.theta_sig_ = s.theta_sig;
  p.flag_ = channel::ChannelFlag::kStable;
  p.cm_own_new_.reset();
  p.st_prime_ = {};
  if (s.theta_state < s.sn) {
    // Post-message-4 snapshot: it is the Γ′ of an update whose Γ (state
    // sn − 1) died with the process, and Θ still covers only states below it.
    p.flag_ = channel::ChannelFlag::kUpdating;
    p.sn_ = s.theta_state;
    p.st_prime_ = std::exchange(p.st_, {});
    p.cm_own_new_ = std::exchange(p.cm_own_, {});
    p.cm_own_new_script_ = std::exchange(p.cm_own_script_, {});
    p.cm_other_new_body_ = std::exchange(p.cm_other_body_, {});
    p.cm_other_new_script_ = std::exchange(p.cm_other_script_, {});
    p.split_new_ = std::exchange(p.split_, {});
  }
  p.pending_split_.reset();
  p.pending_revocation_txid_.reset();
  p.own_rv_sig_ = {};  // RAM only: the crash lost it
  p.expected_coop_txid_.reset();
  p.outcome_ = CloseOutcome::kNone;
  p.closed_round_.reset();
  p.durability_ = nullptr;  // the crashed process's store
  p.open_ = true;
  p.env_.watch_spend(p.hook_, p.fund_op_);
  p.set_online(true);
}

Bytes serialize_snapshot(const ChannelSnapshot& s) {
  Writer w;
  w.bytes({kSnapshotMagic, sizeof(kSnapshotMagic)});
  w.u8(kSnapshotVersion);
  w.var_bytes(Bytes(s.params.id.begin(), s.params.id.end()));
  w.u64le(static_cast<std::uint64_t>(s.params.cash_a));
  w.u64le(static_cast<std::uint64_t>(s.params.cash_b));
  w.u64le(static_cast<std::uint64_t>(s.params.t_punish));
  w.u32le(s.params.s0);
  w.u8(s.params.feeable_revocations ? 1 : 0);
  w.u8(s.id == PartyId::kA ? 0 : 1);
  w.u32le(s.sn);
  w.u32le(s.theta_state);
  write_state(w, s.st);
  write_outpoint(w, s.fund_op);
  write_tx(w, s.cm_own);
  write_script(w, s.cm_own_script);
  write_script(w, s.cm_other_script);
  write_tx(w, s.split_body);
  w.var_bytes(s.split_sig_a);
  w.var_bytes(s.split_sig_b);
  w.var_bytes(s.theta_sig);
  write_pubkeys(w, s.pub_other);
  return w.take();
}

ChannelSnapshot deserialize_snapshot(BytesView data) {
  Reader r(data);
  ChannelSnapshot s;
  const Bytes magic = r.bytes(sizeof(kSnapshotMagic));
  if (!std::equal(magic.begin(), magic.end(), kSnapshotMagic)) corrupt("bad snapshot magic");
  const std::uint8_t version = r.u8();
  if (version != kSnapshotVersion)
    throw std::invalid_argument("unsupported snapshot version " + std::to_string(version));
  const Bytes id = r.var_bytes();
  s.params.id.assign(id.begin(), id.end());
  s.params.cash_a = static_cast<Amount>(r.u64le());
  s.params.cash_b = static_cast<Amount>(r.u64le());
  s.params.t_punish = static_cast<Round>(r.u64le());
  s.params.s0 = r.u32le();
  s.params.feeable_revocations = read_bool(r, "feeable-revocations");
  s.id = read_bool(r, "party id") ? PartyId::kB : PartyId::kA;
  s.sn = r.u32le();
  s.theta_state = r.u32le();
  if (s.theta_state > s.sn) corrupt("theta coverage past sn");
  s.st = read_state(r);
  s.fund_op = read_outpoint(r);
  s.cm_own = read_tx(r);
  s.cm_own_script = read_script(r);
  s.cm_other_script = read_script(r);
  s.split_body = read_tx(r);
  s.split_sig_a = r.var_bytes();
  s.split_sig_b = r.var_bytes();
  s.theta_sig = r.var_bytes();
  s.pub_other = read_pubkeys(r);
  if (!r.empty()) throw std::invalid_argument("trailing snapshot bytes");
  return s;
}

}  // namespace daric::daricch
