// The Network ties scheduler + channel + node ownership together and offers
// neighbourhood queries.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sim/channel.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sld::sim {

class Network {
 public:
  explicit Network(ChannelConfig channel_config = {},
                   std::uint64_t seed = 0x5eedULL);

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  Channel& channel() { return channel_; }
  const Channel& channel() const { return channel_; }

  /// Constructs a node of type T in place, registers it with the channel,
  /// and attaches it. Returns a reference valid for the Network's lifetime.
  template <typename T, typename... Args>
  T& emplace_node(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    register_node(std::move(owned));
    return ref;
  }

  /// Registers an extra address (e.g. a detecting ID) for `owner`.
  void add_alias(NodeId alias, Node& owner) { channel_.add_alias(alias, &owner); }

  /// The node registered under `id`, or nullptr (also for an alias).
  Node* node(NodeId id) const;
  std::size_t node_count() const { return order_.size(); }
  const std::vector<Node*>& nodes() const { return order_; }

  /// IDs of the nodes a transmission from `id` reaches directly or through
  /// a wormhole (Channel::connected), in registration order. Reads a
  /// neighbour table built on the first query and rebuilt on the first
  /// query after a node or wormhole is added; the returned view stays valid
  /// until then. Not safe to call concurrently on one Network.
  std::span<const NodeId> connected_nodes(NodeId id) const;

  /// Calls start() on every node in registration order.
  void start_all();

  /// Runs the simulation until the event queue drains (bounded by
  /// `max_events` as a runaway guard). Returns events executed.
  std::uint64_t run(std::uint64_t max_events = 50'000'000ULL);

 private:
  void register_node(std::unique_ptr<Node> node);
  void build_neighbor_table() const;

  Scheduler scheduler_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> owned_;
  std::vector<Node*> order_;

  /// connected_nodes of every node in compressed sparse rows: the list of
  /// the node with registration index (Node::index) i is
  /// neighbor_ids_[neighbor_start_[i], neighbor_start_[i + 1]). Also the
  /// node and wormhole counts the table was built for.
  mutable std::vector<std::size_t> neighbor_start_;
  mutable std::vector<NodeId> neighbor_ids_;
  mutable std::size_t table_nodes_ = 0;
  mutable std::size_t table_wormholes_ = 0;
};

}  // namespace sld::sim
