#include "src/pcn/network.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/event.h"
#include "src/obs/span.h"

namespace daric::pcn {

using channel::StateVec;
using sim::PartyId;

void PaymentNetwork::add_node(const std::string& name) {
  if (!node_index_.emplace(name, nodes_.size()).second)
    throw std::invalid_argument("node already exists: " + name);
  nodes_.push_back({name, false, {}});
}

std::size_t PaymentNetwork::open_channel(const std::string& left, const std::string& right,
                                         Amount left_deposit, Amount right_deposit,
                                         Round t_punish) {
  if (!has_node(left) || !has_node(right)) throw std::invalid_argument("unknown node");
  channel::ChannelParams p;
  p.id = "pcn/" + left + "-" + right + "/" + std::to_string(channel_counter_++);
  p.cash_a = left_deposit;
  p.cash_b = right_deposit;
  p.t_punish = t_punish;
  Edge e{node_index_.at(left), node_index_.at(right),
         std::make_unique<daricch::DaricChannel>(env_, p)};
  if (!e.ch->create()) throw std::runtime_error("channel creation failed");
  const std::size_t index = channels_.size();
  nodes_[e.left].channels.push_back(index);
  nodes_[e.right].channels.push_back(index);
  channels_.push_back(std::move(e));
  return index;
}

Amount PaymentNetwork::spendable(const Edge& e, bool forward) const {
  const auto& st = e.ch->party(PartyId::kA).state();
  // Balances already exclude cash locked in pending HTLCs — it is debited
  // from the payer side when the HTLC is added and only credited somewhere
  // on settlement or abort. Keep 1 satoshi on each side so states stay
  // ledger-valid; a drained side (balance ≤ 1) offers nothing. Without the
  // guard the subtraction goes negative and routing would treat a drained
  // edge as liquid.
  const Amount balance = forward ? st.to_a : st.to_b;
  return balance <= 1 ? 0 : balance - 1;
}

std::optional<std::vector<RouteHop>> PaymentNetwork::find_route(const std::string& from_name,
                                                                const std::string& to_name,
                                                                Amount amount) const {
  const auto from_it = node_index_.find(from_name);
  const auto to_it = node_index_.find(to_name);
  if (from_it == node_index_.end() || to_it == node_index_.end()) return std::nullopt;
  const NodeId from = from_it->second, to = to_it->second;
  if (from == to) return std::nullopt;
  // BFS over nodes; edges usable only with sufficient directional liquidity.
  // The FIFO queue and each node's channels in opening order fix the visit
  // order, so the same network state always yields the same route.
  struct Step {
    NodeId prev;
    RouteHop hop;
  };
  std::vector<Step> parent(nodes_.size());
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeId> queue{from};  // consumed front to back
  seen[from] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId cur = queue[head];
    for (const std::size_t i : nodes_[cur].channels) {
      const Edge& e = channels_[i];
      if (!e.ch->party(PartyId::kA).channel_open()) continue;
      NodeId next = 0;
      bool forward = false;
      if (e.left == cur && spendable(e, true) >= amount) {
        next = e.right;
        forward = true;
      } else if (e.right == cur && spendable(e, false) >= amount) {
        next = e.left;
        forward = false;
      } else {
        continue;
      }
      // Known-offline intermediaries cannot forward; the recipient itself
      // may still be offline (detected at lock time).
      if (next != to && nodes_[next].offline) continue;
      if (seen[next]) continue;
      seen[next] = 1;
      parent[next] = {cur, {i, forward}};
      if (next == to) {
        std::vector<RouteHop> route;
        for (NodeId walk = to; walk != from; walk = parent[walk].prev)
          route.push_back(parent[walk].hop);
        std::reverse(route.begin(), route.end());
        return route;
      }
      queue.push_back(next);
    }
  }
  return std::nullopt;
}

bool PaymentNetwork::resolve_hop(const RouteHop& hop, const Bytes& payment_hash,
                                 bool settle) {
  Edge& e = channels_[hop.channel_index];
  StateVec st = e.ch->party(PartyId::kA).state();
  const auto it = std::find_if(st.htlcs.begin(), st.htlcs.end(), [&](const channel::Htlc& h) {
    return h.payment_hash == payment_hash && h.offered_by_a == hop.forward;
  });
  if (it == st.htlcs.end()) return false;
  const Amount cash = it->cash;
  st.htlcs.erase(it);
  if (settle == hop.forward) {
    st.to_b += cash;  // settle forward / abort backward: B side gets the cash
  } else {
    st.to_a += cash;
  }
  const bool ok = e.ch->update(st);
  if (ok) {
    (settle ? htlc_settled_ : htlc_rolled_back_)->inc();
    if (env_.tracer().enabled())
      env_.tracer().emit(env_.now(),
                         settle ? obs::EventKind::kHtlcSettle : obs::EventKind::kHtlcRollback,
                         "pcn", e.ch->params().id, {}, {obs::Attr::i("amount", cash)});
  }
  return ok;
}

std::optional<PaymentId> PaymentNetwork::begin_payment(const std::string& from,
                                                       const std::string& to, Amount amount) {
  OBS_SPAN("pcn.pay.lock");
  if (amount <= 0) return std::nullopt;
  const auto route = find_route(from, to, amount);
  if (!route) return std::nullopt;

  const auto invoice = channel::make_htlc_secret(
      "pcn/" + from + "->" + to + "/" + std::to_string(payment_counter_));

  payments_begun_->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kPaymentBegin, "pcn",
                       "pay/" + std::to_string(payment_counter_), {},
                       {obs::Attr::s("from", from), obs::Attr::s("to", to),
                        obs::Attr::i("amount", amount),
                        obs::Attr::i("hops", static_cast<std::int64_t>(route->size()))});

  // Lock HTLCs payer-ward with decreasing timelocks so every intermediary
  // can recover upstream after enforcing downstream.
  std::vector<RouteHop> locked;
  const auto base_timeout = static_cast<std::uint32_t>(12 + 6 * route->size());
  bool failed = false;
  for (std::size_t h = 0; h < route->size(); ++h) {
    const RouteHop& hop = (*route)[h];
    Edge& e = channels_[hop.channel_index];
    if (nodes_[hop.forward ? e.right : e.left].offline) {  // receiver offline: cannot lock further
      failed = true;
      break;
    }
    StateVec st = e.ch->party(PartyId::kA).state();
    channel::Htlc htlc{amount, invoice.payment_hash, hop.forward,
                       base_timeout - static_cast<std::uint32_t>(6 * h)};
    if (hop.forward) {
      st.to_a -= amount;
    } else {
      st.to_b -= amount;
    }
    st.htlcs.push_back(htlc);
    if (!e.ch->update(st)) {
      failed = true;
      break;
    }
    htlc_locked_->inc();
    if (env_.tracer().enabled())
      env_.tracer().emit(env_.now(), obs::EventKind::kHtlcLock, "pcn", e.ch->params().id, {},
                         {obs::Attr::i("amount", amount),
                          obs::Attr::i("timeout", htlc.timeout)});
    locked.push_back(hop);
  }

  if (failed) {
    // Roll back the locked hops cooperatively (timeout path, off-chain).
    for (auto it = locked.rbegin(); it != locked.rend(); ++it)
      resolve_hop(*it, invoice.payment_hash, /*settle=*/false);
    payments_aborted_->inc();
    if (env_.tracer().enabled())
      env_.tracer().emit(env_.now(), obs::EventKind::kPaymentAbort, "pcn",
                         "pay/" + std::to_string(payment_counter_), {},
                         {obs::Attr::s("reason", "lock-failed")});
    return std::nullopt;
  }

  const PaymentId id = payment_counter_++;
  pending_.emplace(id, PendingPayment{*route, invoice.payment_hash, from, to, env_.now()});
  return id;
}

bool PaymentNetwork::settle_payment(PaymentId id) {
  OBS_SPAN("pcn.pay.settle");
  const auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  const PendingPayment payment = std::move(it->second);
  pending_.erase(it);
  for (auto hop = payment.route.rbegin(); hop != payment.route.rend(); ++hop) {
    if (!resolve_hop(*hop, payment.payment_hash, /*settle=*/true)) {
      payments_failed_->inc();
      if (env_.tracer().enabled())
        env_.tracer().emit(env_.now(), obs::EventKind::kPaymentAbort, "pcn",
                           "pay/" + std::to_string(id), {},
                           {obs::Attr::s("reason", "settle-failed")});
      return false;  // falls back to on-chain enforcement
    }
  }
  ++payments_completed_;
  payments_settled_->inc();
  hold_rounds_->observe(env_.now() - payment.locked_round);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kPaymentSettle, "pcn",
                       "pay/" + std::to_string(id), {},
                       {obs::Attr::s("from", payment.from), obs::Attr::s("to", payment.to),
                        obs::Attr::i("hold_rounds", env_.now() - payment.locked_round)});
  return true;
}

bool PaymentNetwork::abort_payment(PaymentId id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  const PendingPayment payment = std::move(it->second);
  pending_.erase(it);
  bool ok = true;
  for (auto hop = payment.route.rbegin(); hop != payment.route.rend(); ++hop)
    ok = resolve_hop(*hop, payment.payment_hash, /*settle=*/false) && ok;
  payments_aborted_->inc();
  hold_rounds_->observe(env_.now() - payment.locked_round);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kPaymentAbort, "pcn",
                       "pay/" + std::to_string(id), {},
                       {obs::Attr::s("reason", "aborted"), obs::Attr::s("from", payment.from),
                        obs::Attr::s("to", payment.to)});
  return ok;
}

bool PaymentNetwork::pay(const std::string& from, const std::string& to, Amount amount) {
  OBS_SPAN("pcn.pay.total");
  const auto id = begin_payment(from, to, amount);
  if (!id) return false;
  return settle_payment(*id);
}

void PaymentNetwork::set_offline(const std::string& name, bool offline) {
  nodes_[node_index_.at(name)].offline = offline;
}

Amount PaymentNetwork::balance(const std::string& node) const {
  const auto it = node_index_.find(node);
  if (it == node_index_.end()) return 0;
  Amount sum = 0;
  for (const Edge& e : channels_) {
    if (!e.ch->party(PartyId::kA).channel_open()) continue;
    const auto& st = e.ch->party(PartyId::kA).state();
    if (e.left == it->second) sum += st.to_a;
    if (e.right == it->second) sum += st.to_b;
  }
  return sum;
}

}  // namespace daric::pcn
