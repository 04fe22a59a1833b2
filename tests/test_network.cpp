#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>

#include "prop/prop.hpp"

namespace sld::sim {
namespace {

class CountingNode final : public Node {
 public:
  using Node::Node;
  void start() override { ++started; }
  void on_message(const Delivery&) override { ++received; }
  int started = 0;
  int received = 0;
};

/// connected_nodes as a vector, for comparing with expected lists.
std::vector<NodeId> neighbors(const Network& net, NodeId id) {
  const std::span<const NodeId> ids = net.connected_nodes(id);
  return {ids.begin(), ids.end()};
}

TEST(Network, NodeLookup) {
  Network net;
  auto& a = net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  EXPECT_EQ(net.node(1), &a);
  EXPECT_EQ(net.node(99), nullptr);
  EXPECT_EQ(net.node_count(), 1u);
}

TEST(Network, StartAllInvokesEveryNode) {
  Network net;
  auto& a = net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  auto& b = net.emplace_node<CountingNode>(2, util::Vec2{1, 0}, 100.0);
  net.start_all();
  EXPECT_EQ(a.started, 1);
  EXPECT_EQ(b.started, 1);
}

TEST(Network, DirectNeighborsRespectRange) {
  // Without wormholes a node is connected exactly to the nodes in its range.
  Network net;
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{50, 0}, 100.0);
  net.emplace_node<CountingNode>(3, util::Vec2{150, 0}, 100.0);
  EXPECT_EQ(neighbors(net, 1), (std::vector<NodeId>{2}));
  EXPECT_EQ(neighbors(net, 2), (std::vector<NodeId>{1, 3}));
}

TEST(Network, ConnectedNodesIncludeWormholePeers) {
  Network net;
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{900, 900}, 100.0);
  EXPECT_TRUE(net.connected_nodes(1).empty());
  WormholeLink link;
  link.mouth_a = {10, 0};
  link.mouth_b = {890, 900};
  link.exit_range_ft = 100.0;
  net.channel().add_wormhole(link);
  const auto connected = net.connected_nodes(1);
  EXPECT_NE(std::find(connected.begin(), connected.end(), 2u),
            connected.end());
}

TEST(Network, TunnelOnlyPeerInAdjacentCellIsFound) {
  // 150 ft apart with 100 ft ranges: the two nodes sit in neighbouring grid
  // cells, out of each other's direct reach, and connected only through the
  // tunnel. The grid pass rejects each as a direct sender; the tunnel pass
  // must still try it.
  Network net;
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{150, 0}, 100.0);
  WormholeLink link;
  link.mouth_a = {10, 0};
  link.mouth_b = {140, 0};
  link.exit_range_ft = 100.0;
  net.channel().add_wormhole(link);
  EXPECT_EQ(neighbors(net, 1), (std::vector<NodeId>{2}));
  EXPECT_EQ(neighbors(net, 2), (std::vector<NodeId>{1}));
}

TEST(Network, NeighborQueriesValidateId) {
  Network net;
  EXPECT_THROW(net.connected_nodes(1), std::invalid_argument);
}

TEST(Network, RunExecutesScheduledEvents) {
  Network net;
  int fired = 0;
  net.scheduler().schedule_at(10, [&]() { ++fired; });
  EXPECT_EQ(net.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Network, NodesListPreservesRegistrationOrder) {
  Network net;
  net.emplace_node<CountingNode>(3, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(1, util::Vec2{0, 0}, 100.0);
  net.emplace_node<CountingNode>(2, util::Vec2{0, 0}, 100.0);
  ASSERT_EQ(net.nodes().size(), 3u);
  EXPECT_EQ(net.nodes()[0]->id(), 3u);
  EXPECT_EQ(net.nodes()[1]->id(), 1u);
  EXPECT_EQ(net.nodes()[2]->id(), 2u);
}

/// The O(N^2 * W) scan the neighbour table replaced, kept as its oracle.
std::vector<NodeId> scan_connected(const Network& net, NodeId id) {
  const Node* center = net.node(id);
  std::vector<NodeId> out;
  for (const Node* other : net.nodes()) {
    if (other != center && net.channel().connected(*center, *other))
      out.push_back(other->id());
  }
  return out;
}

struct NodeSpec {
  util::Vec2 position;
  double range = 0.0;
};

/// A network built in two stages: connected_nodes is checked after the
/// first stage, then again after the second stage's nodes and wormholes.
struct Topology {
  std::vector<NodeSpec> nodes[2];
  std::vector<WormholeLink> wormholes[2];
};

prop::Gen<Topology> topology_gen() {
  prop::Gen<Topology> g;
  g.generate = [](util::Rng& rng) {
    // The first stage's largest range. The first stage is dense enough for
    // the grid's cells to be one such range wide, so its lattice points,
    // counted from the origin (the nodes' lowest corner), lie on cell edges
    // up to the grid's rounding margin. Lattice neighbours sit exactly one
    // range apart.
    constexpr double kLattice = 150.0;
    const double ranges[] = {40.0, 75.0, 100.0, kLattice};
    const double field = rng.uniform(200.0, 800.0);
    const auto lattice_cells = static_cast<std::uint64_t>(field / kLattice) + 1;
    const auto lattice_point = [&]() {
      return util::Vec2{
          kLattice * static_cast<double>(rng.uniform_u64(lattice_cells)),
          kLattice * static_cast<double>(rng.uniform_u64(lattice_cells))};
    };
    const auto anywhere = [&](double lo, double hi) {
      return util::Vec2{rng.uniform(lo, hi), rng.uniform(lo, hi)};
    };

    Topology t;
    t.nodes[0].push_back({{0.0, 0.0}, kLattice});
    for (int stage = 0; stage < 2; ++stage) {
      const std::uint64_t count =
          stage == 0 ? 36 + rng.uniform_u64(44) : rng.uniform_u64(16);
      for (std::uint64_t k = 0; k < count; ++k) {
        NodeSpec s;
        s.range = ranges[rng.uniform_u64(4)];
        const double kind = rng.uniform01();
        if (kind < 0.3) {
          s.position = lattice_point();
        } else if (kind < 0.5) {
          // Exactly one range from an earlier node, along an axis.
          const NodeSpec& prev =
              t.nodes[0][rng.uniform_u64(t.nodes[0].size())];
          const double d = rng.bernoulli(0.5) ? prev.range : s.range;
          s.position = prev.position + (rng.bernoulli(0.5) ? util::Vec2{d, 0.0}
                                                           : util::Vec2{0.0, d});
        } else {
          s.position = anywhere(0.0, field);
        }
        // A late node may outrange every early one, which widens the cells.
        if (stage == 1 && rng.bernoulli(0.2)) s.range = 1.5 * kLattice;
        t.nodes[stage].push_back(s);
      }
    }
    // Now and then a late node at a non-finite position, which reaches and
    // hears nothing.
    if (rng.bernoulli(0.1)) {
      const double inf = std::numeric_limits<double>::infinity();
      const double bad[] = {std::numeric_limits<double>::quiet_NaN(), inf, -inf};
      t.nodes[1].push_back({{bad[rng.uniform_u64(3)], rng.uniform(0.0, field)},
                            ranges[rng.uniform_u64(4)]});
    }
    // Mouths inside and outside the nodes' bounding box; exit ranges above
    // and below the node ranges.
    const std::uint64_t tunnels = rng.uniform_u64(4);
    for (std::uint64_t k = 0; k < tunnels; ++k) {
      WormholeLink w;
      w.mouth_a = anywhere(-0.5 * field, 1.5 * field);
      w.mouth_b = rng.bernoulli(0.3) ? lattice_point()
                                     : anywhere(-0.5 * field, 1.5 * field);
      w.exit_range_ft = rng.bernoulli(0.3) ? ranges[rng.uniform_u64(4)]
                                           : rng.uniform(10.0, 400.0);
      t.wormholes[rng.uniform_u64(2)].push_back(w);
    }
    return t;
  };
  g.show = [](const Topology& t) {
    std::ostringstream os;
    for (int stage = 0; stage < 2; ++stage) {
      os << (stage == 0 ? "{first:" : " then:");
      for (const NodeSpec& s : t.nodes[stage])
        os << " (" << s.position.x << "," << s.position.y << " r" << s.range << ")";
      for (const WormholeLink& w : t.wormholes[stage])
        os << " wormhole(" << w.mouth_a.x << "," << w.mouth_a.y << ")-("
           << w.mouth_b.x << "," << w.mouth_b.y << ") exit " << w.exit_range_ft;
    }
    return os.str() + "}";
  };
  return g;
}

TEST(Network, ConnectedNodesMatchPairwiseScan) {
  EXPECT_TRUE(prop::forall(
      "connected_nodes equals the pairwise scan", topology_gen(),
      [](const Topology& t) {
        Network net;
        NodeId registered = 0;
        for (int stage = 0; stage < 2; ++stage) {
          // IDs out of registration order, so the two orders differ.
          for (const NodeSpec& s : t.nodes[stage]) {
            net.emplace_node<CountingNode>((7919 * ++registered) % 10007,
                                           s.position, s.range);
          }
          for (const WormholeLink& w : t.wormholes[stage])
            net.channel().add_wormhole(w);
          for (const Node* node : net.nodes()) {
            if (neighbors(net, node->id()) != scan_connected(net, node->id()))
              return false;
          }
        }
        return true;
      }));
}

TEST(Node, AttachValidation) {
  CountingNode n(1, {0, 0}, 100.0);
  EXPECT_THROW(n.attach(nullptr, nullptr, 0), std::invalid_argument);
}

TEST(Node, RejectsNonPositiveRange) {
  EXPECT_THROW(CountingNode(1, util::Vec2{0, 0}, 0.0), std::invalid_argument);
  EXPECT_THROW(CountingNode(1, util::Vec2{0, 0}, -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace sld::sim
