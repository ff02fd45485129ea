// Payment-channel network on top of Daric channels (Sec. 8, "Extending
// Daric to multi-hop payments"): nodes, channels, BFS routing with capacity
// constraints, and multi-hop HTLC payments with per-hop decreasing
// timelocks. HTLC outputs ride on split transactions, so multi-hop needs
// no extra machinery beyond channel updates — the property the paper
// credits to avoiding state duplication.
//
// Payments are two-phase: begin_payment locks HTLCs along the route,
// settle_payment / abort_payment resolve them. Several payments may be
// in flight over the same edge at once; resolution always matches the
// HTLC by payment hash and direction, never by position.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/daric/protocol.h"

namespace daric::pcn {

struct RouteHop {
  std::size_t channel_index;
  bool forward;  // true: payer is the channel's A side
};

using PaymentId = int;

class PaymentNetwork {
 public:
  explicit PaymentNetwork(sim::Environment& env)
      : env_(env),
        htlc_settled_(&env.metrics().counter("pcn.htlc.settled")),
        htlc_rolled_back_(&env.metrics().counter("pcn.htlc.rolled_back")),
        htlc_locked_(&env.metrics().counter("pcn.htlc.locked")),
        payments_begun_(&env.metrics().counter("pcn.payments.begun")),
        payments_settled_(&env.metrics().counter("pcn.payments.settled")),
        payments_failed_(&env.metrics().counter("pcn.payments.failed")),
        payments_aborted_(&env.metrics().counter("pcn.payments.aborted")),
        hold_rounds_(&env.metrics().histogram("pcn.htlc_hold_rounds")) {}

  void add_node(const std::string& name);
  bool has_node(const std::string& name) const { return node_index_.contains(name); }

  /// Opens a Daric channel between two registered nodes; `left` plays the
  /// role of party A. Returns the channel index.
  std::size_t open_channel(const std::string& left, const std::string& right,
                           Amount left_deposit, Amount right_deposit, Round t_punish = 6);

  /// BFS route with enough directional liquidity for `amount` on each hop.
  std::optional<std::vector<RouteHop>> find_route(const std::string& from,
                                                  const std::string& to, Amount amount) const;

  /// Phase 1 of a multi-hop HTLC payment: routes and locks an HTLC with a
  /// decreasing timelock on each hop (payee-ward). On failure every hop
  /// locked so far is rolled back and nullopt is returned.
  std::optional<PaymentId> begin_payment(const std::string& from, const std::string& to,
                                         Amount amount);

  /// Phase 2: the recipient reveals the preimage; settles hops in reverse.
  bool settle_payment(PaymentId id);

  /// Cooperative cancellation (timeout path, off-chain): unlocks the
  /// payment's HTLCs in reverse, returning the cash to the payer side.
  bool abort_payment(PaymentId id);

  /// One-shot payment: begin_payment + settle_payment.
  bool pay(const std::string& from, const std::string& to, Amount amount);

  /// Marks a node as unresponsive: payments through it fail at settlement
  /// (and the sender's HTLC lock is rolled back cooperatively upstream).
  void set_offline(const std::string& name, bool offline);

  /// Sum of the node's balances across all its open channels.
  Amount balance(const std::string& node) const;

  std::size_t channel_count() const { return channels_.size(); }
  daricch::DaricChannel& channel(std::size_t i) { return *channels_.at(i).ch; }
  const std::string& left_node(std::size_t i) const { return nodes_[channels_.at(i).left].name; }
  const std::string& right_node(std::size_t i) const {
    return nodes_[channels_.at(i).right].name;
  }

  /// Number of successfully completed payments.
  int payments_completed() const { return payments_completed_; }

 private:
  /// Dense node index, assigned in add_node order.
  using NodeId = std::size_t;
  struct Node {
    std::string name;
    bool offline = false;
    // Channel indices touching the node, in opening order, so routing scans
    // node degree instead of every channel in the network.
    std::vector<std::size_t> channels;
  };
  struct Edge {
    NodeId left, right;
    std::unique_ptr<daricch::DaricChannel> ch;
  };
  struct PendingPayment {
    std::vector<RouteHop> route;
    Bytes payment_hash;
    std::string from, to;
    Round locked_round = 0;  // when the last hop's HTLC locked (hold-time base)
  };

  Amount spendable(const Edge& e, bool forward) const;
  /// Removes the HTLC matching (payment_hash, direction) from the hop's
  /// channel and credits its cash to the payee (settle) or back to the
  /// payer (abort). Matching by hash, not position, keeps concurrent
  /// payments over a shared edge independent.
  bool resolve_hop(const RouteHop& hop, const Bytes& payment_hash, bool settle);

  sim::Environment& env_;
  // Cached registry handles (bound once above; payment paths stay off the
  // registry mutex).
  obs::Counter* htlc_settled_;
  obs::Counter* htlc_rolled_back_;
  obs::Counter* htlc_locked_;
  obs::Counter* payments_begun_;
  obs::Counter* payments_settled_;
  obs::Counter* payments_failed_;
  obs::Counter* payments_aborted_;
  obs::Histogram* hold_rounds_;
  std::vector<Node> nodes_;  // indexed by NodeId
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<Edge> channels_;
  std::map<PaymentId, PendingPayment> pending_;
  int payments_completed_ = 0;
  int payment_counter_ = 0;
  int channel_counter_ = 0;
};

}  // namespace daric::pcn
