// Directed follow graph and the metrics reported in Table 2.
#ifndef LIVESIM_SOCIAL_GRAPH_H
#define LIVESIM_SOCIAL_GRAPH_H

#include <cstdint>
#include <vector>

#include "livesim/util/rng.h"

namespace livesim::social {

/// Directed graph over nodes 0..n-1 with out-adjacency lists.
/// An edge u -> v means "u follows v".
class Graph {
 public:
  explicit Graph(std::uint32_t nodes) : out_(nodes), in_degree_(nodes, 0) {}

  std::uint32_t nodes() const noexcept {
    return static_cast<std::uint32_t>(out_.size());
  }
  std::uint64_t edges() const noexcept { return edge_count_; }

  /// Adds edge u->v; duplicate edges and self-loops are ignored (returns
  /// false). O(out_degree(u)).
  bool add_edge(std::uint32_t u, std::uint32_t v);

  const std::vector<std::uint32_t>& out(std::uint32_t u) const {
    return out_[u];
  }
  std::uint32_t out_degree(std::uint32_t u) const {
    return static_cast<std::uint32_t>(out_[u].size());
  }
  std::uint32_t in_degree(std::uint32_t u) const { return in_degree_[u]; }
  std::uint32_t degree(std::uint32_t u) const {
    return out_degree(u) + in_degree(u);
  }

  double mean_out_degree() const noexcept {
    return nodes() ? static_cast<double>(edge_count_) / nodes() : 0.0;
  }

  /// Builds the reverse adjacency (who follows v) -- needed by the
  /// notification fan-out. Call once after construction; adding edges
  /// afterwards invalidates it (rebuild). Doubles the memory footprint.
  void build_reverse();

  /// Followers of `v` (nodes with an edge into v). Requires
  /// build_reverse().
  const std::vector<std::uint32_t>& followers_of(std::uint32_t v) const;

 private:
  std::vector<std::vector<std::uint32_t>> out_;
  std::vector<std::vector<std::uint32_t>> in_;  // filled by build_reverse()
  std::vector<std::uint32_t> in_degree_;
  std::uint64_t edge_count_ = 0;
};

/// Table 2 metrics. Clustering and path length are estimated on sampled
/// nodes over the undirected projection (exact computation on multi-million
/// node graphs is unnecessary for reproducing the comparison).
struct GraphMetrics {
  std::uint32_t nodes = 0;
  std::uint64_t edges = 0;
  double mean_degree = 0.0;       // directed edges per node
  double clustering = 0.0;        // avg local clustering coefficient
  double mean_path = 0.0;         // avg shortest path (undirected, sampled)
  double assortativity = 0.0;     // degree assortativity over edges
};

GraphMetrics measure(const Graph& g, Rng& rng,
                     std::uint32_t clustering_samples = 2000,
                     std::uint32_t path_sources = 24);

}  // namespace livesim::social

#endif  // LIVESIM_SOCIAL_GRAPH_H
