#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/geometry.hpp"

namespace sld::sim {

Network::Network(ChannelConfig channel_config, std::uint64_t seed)
    : channel_(scheduler_, channel_config, util::Rng(seed)) {}

void Network::register_node(std::unique_ptr<Node> node) {
  Node* raw = node.get();
  raw->attach(&channel_, &scheduler_, order_.size());
  channel_.add_node(raw);  // rejects an ID already in use
  order_.push_back(raw);
  owned_.push_back(std::move(node));
}

Node* Network::node(NodeId id) const {
  Node* found = channel_.find(id);
  return found != nullptr && found->id() == id ? found : nullptr;
}

std::span<const NodeId> Network::connected_nodes(NodeId id) const {
  const Node* center = node(id);
  if (center == nullptr)
    throw std::invalid_argument("Network::connected_nodes: unknown node");
  if (table_nodes_ != order_.size() ||
      table_wormholes_ != channel_.wormholes().size())
    build_neighbor_table();
  const std::size_t i = center->index();
  const std::size_t first = neighbor_start_[i];
  return std::span<const NodeId>(neighbor_ids_)
      .subspan(first, neighbor_start_[i + 1] - first);
}

namespace {
/// Cell of coordinate `v` on an axis of `cells` cells of width `side` that
/// starts at `lo`. Clamping only merges cells, so it never puts two points
/// more cells apart than their unclamped cells are.
std::size_t cell_index(double v, double lo, double side, std::size_t cells) {
  const double c = std::floor((v - lo) / side);
  if (!(c > 0.0)) return 0;  // also NaN
  if (c >= static_cast<double>(cells - 1)) return cells - 1;
  return static_cast<std::size_t>(c);
}
}  // namespace

void Network::build_neighbor_table() const {
  const std::size_t n = order_.size();
  const std::vector<WormholeLink>& wormholes = channel_.wormholes();
  neighbor_start_.assign(n + 1, 0);
  neighbor_ids_.clear();
  table_nodes_ = n;
  table_wormholes_ = wormholes.size();
  if (n == 0) return;

  // Positions and squared ranges by registration index, so the passes
  // below read flat arrays rather than a Node per candidate.
  std::vector<util::Vec2> pos(n);
  std::vector<double> range2(n);
  double max_range = 0.0;
  double lo_x = std::numeric_limits<double>::infinity(), lo_y = lo_x;
  double hi_x = -lo_x, hi_y = -lo_x;
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = *order_[i];
    pos[i] = node.position();
    range2[i] = node.range() * node.range();
    max_range = std::max(max_range, node.range());
    lo_x = std::min(lo_x, pos[i].x);
    lo_y = std::min(lo_y, pos[i].y);
    hi_x = std::max(hi_x, pos[i].x);
    hi_y = std::max(hi_y, pos[i].y);
  }

  // Uniform grid with cells at least as wide as the largest range, so every
  // node a receiver hears directly sits in the receiver's 3x3 block. The
  // 1e-6 margin absorbs rounding in the cell arithmetic and in the
  // squared-distance test. Sparse or thin layouts get wider cells, so there
  // are at most about three cells per node. A span that is not finite
  // leaves one cell holding every node. (A NaN position lands in some cell
  // and fails every distance test, as it does in the predicate.)
  std::size_t nx = 1;
  std::size_t ny = 1;
  double side = max_range * (1.0 + 1e-6);
  const double span_x = hi_x - lo_x;
  const double span_y = hi_y - lo_y;
  if (std::isfinite(span_x) && std::isfinite(span_y) && std::isfinite(side)) {
    const double m = static_cast<double>(n);
    side = std::max({side, span_x / m, span_y / m, std::sqrt(span_x / m * span_y)});
    nx = static_cast<std::size_t>(span_x / side) + 1;
    ny = static_cast<std::size_t>(span_y / side) + 1;
  }

  // Counting sort of the nodes into cells; each cell keeps registration
  // order.
  std::vector<std::size_t> cell_of(n);
  std::vector<std::size_t> cell_start(nx * ny + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] = cell_index(pos[i].y, lo_y, side, ny) * nx +
                 cell_index(pos[i].x, lo_x, side, nx);
    ++cell_start[cell_of[i] + 1];
  }
  for (std::size_t c = 0; c < nx * ny; ++c) cell_start[c + 1] += cell_start[c];
  // The nodes in cell order, so a run of adjacent cells is one contiguous
  // stretch of candidates.
  struct Candidate {
    util::Vec2 pos;
    double range2;
    std::size_t index;
  };
  std::vector<Candidate> by_cell(n);
  {
    std::vector<std::size_t> next(cell_start.begin(), cell_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      by_cell[next[cell_of[i]]++] = {pos[i], range2[i], i};
  }

  // Senders within their own range of each mouth: reach[2w] at mouth_a,
  // reach[2w + 1] at mouth_b (the sender half of Channel::connected's
  // tunnel test).
  std::vector<std::vector<std::size_t>> reach(2 * wormholes.size());
  for (std::size_t w = 0; w < wormholes.size(); ++w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (util::distance_squared(pos[i], wormholes[w].mouth_a) <= range2[i])
        reach[2 * w].push_back(i);
      if (util::distance_squared(pos[i], wormholes[w].mouth_b) <= range2[i])
        reach[2 * w + 1].push_back(i);
    }
  }

  // Calls visit(j, senders) for every receiver j in registration order,
  // with the senders Channel::connected accepts for j, so every row fills
  // in registration order. The predicate is direct reach or a tunnel. The
  // grid pass tests direct reach only, with direct_reach's expression, and
  // marks only the senders it accepts as tried (tried[i] == j + 1), since
  // one it rejects may still reach j through a tunnel. The tunnel
  // candidates, the senders at a mouth whose twin j hears, then go through
  // the full predicate, each at most once. Only they read the marks, so a
  // receiver that hears no mouth skips marking.
  std::vector<std::size_t> tried(n);
  std::vector<std::size_t> linked(n);
  std::vector<const std::vector<std::size_t>*> tunnels;
  const auto for_each_receiver = [&](auto&& visit) {
    std::fill(tried.begin(), tried.end(), 0);
    for (std::size_t j = 0; j < n; ++j) {
      const util::Vec2 pj = pos[j];
      tunnels.clear();
      for (std::size_t w = 0; w < wormholes.size(); ++w) {
        const WormholeLink& wormhole = wormholes[w];
        const double exit2 = wormhole.exit_range_ft * wormhole.exit_range_ft;
        if (util::distance_squared(wormhole.mouth_b, pj) <= exit2)
          tunnels.push_back(&reach[2 * w]);
        if (util::distance_squared(wormhole.mouth_a, pj) <= exit2)
          tunnels.push_back(&reach[2 * w + 1]);
      }
      const bool mark = !tunnels.empty();

      // The 3x3 block is three runs of adjacent cells. About a third of a
      // block is in range, in no order a branch predictor could follow, so
      // the test does not branch: every candidate is stored, and only an
      // accepted one advances `found`.
      std::size_t found = 0;
      const std::size_t cx = cell_of[j] % nx;
      const std::size_t cy = cell_of[j] / nx;
      const std::size_t gx_lo = cx == 0 ? 0 : cx - 1;
      const std::size_t gx_hi = std::min(cx + 1, nx - 1);
      for (std::size_t gy = cy == 0 ? 0 : cy - 1;
           gy <= std::min(cy + 1, ny - 1); ++gy) {
        const std::size_t end = cell_start[gy * nx + gx_hi + 1];
        for (std::size_t k = cell_start[gy * nx + gx_lo]; k < end; ++k) {
          const Candidate& c = by_cell[k];
          const bool direct =
              (c.index != j) & (util::distance_squared(c.pos, pj) <= c.range2);
          if (mark) tried[c.index] = direct ? j + 1 : 0;
          linked[found] = c.index;
          found += direct;
        }
      }
      for (const std::vector<std::size_t>* senders : tunnels) {
        for (const std::size_t i : *senders) {
          if (i == j || tried[i] == j + 1) continue;
          tried[i] = j + 1;
          if (channel_.connected(*order_[i], *order_[j])) linked[found++] = i;
        }
      }
      visit(j, std::span<const std::size_t>(linked).first(found));
    }
  };

  // Count each sender's links, then fill its row receiver by receiver.
  for_each_receiver([&](std::size_t, std::span<const std::size_t> senders) {
    for (const std::size_t i : senders) ++neighbor_start_[i + 1];
  });
  for (std::size_t i = 0; i < n; ++i)
    neighbor_start_[i + 1] += neighbor_start_[i];
  neighbor_ids_.resize(neighbor_start_[n]);
  std::vector<std::size_t> next(neighbor_start_.begin(),
                                neighbor_start_.end() - 1);
  for_each_receiver([&](std::size_t j, std::span<const std::size_t> senders) {
    const NodeId id = order_[j]->id();
    for (const std::size_t i : senders) neighbor_ids_[next[i]++] = id;
  });
}

void Network::start_all() {
  for (Node* n : order_) n->start();

  // Fault-plan lifecycle transitions. Only configured plans schedule
  // anything, so fault-free runs keep the seed event sequence bit-for-bit.
  const FaultPlan& plan = channel_.faults().plan();
  for (const auto& w : plan.crashes) {
    Node* n = node(w.node);
    if (n == nullptr) continue;
    scheduler_.schedule_at(w.start, [n]() { n->crash_now(); });
    scheduler_.schedule_at(w.end, [n]() { n->reboot_now(); });
  }
  for (const auto& p : plan.partitions) {
    const auto nodes_a = static_cast<std::uint64_t>(p.side_a.size());
    const SimTime duration = p.end - p.start;
    scheduler_.schedule_at(p.start, [this, nodes_a]() {
      const obs::Tracer& trace = channel_.tracer();
      if (trace.on())
        trace.emit(trace.event("partition.start").f("nodes_a", nodes_a));
    });
    scheduler_.schedule_at(p.end, [this, duration]() {
      const obs::Tracer& trace = channel_.tracer();
      if (trace.on())
        trace.emit(trace.event("partition.heal")
                       .f("duration_ns", static_cast<std::int64_t>(duration)));
    });
  }
}

std::uint64_t Network::run(std::uint64_t max_events) {
  return scheduler_.run(max_events);
}

}  // namespace sld::sim
