// Vertex-operation tests (§IV-D): vertex insertion with degree hints and
// dictionary growth, Algorithm 2 vertex deletion (undirected neighbour
// cleanup, directed follow-up sweep), memory reclamation, and the
// no-false-positive post-deletion contract.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/dyn_graph.hpp"

namespace sg::core {
namespace {

GraphConfig config(bool undirected, std::uint32_t capacity = 128) {
  GraphConfig cfg;
  cfg.vertex_capacity = capacity;
  cfg.undirected = undirected;
  return cfg;
}

std::vector<WeightedEdge> star(VertexId center, std::uint32_t leaves) {
  std::vector<WeightedEdge> edges;
  for (std::uint32_t v = 1; v <= leaves; ++v) {
    edges.push_back({center, center + v, v});
  }
  return edges;
}

TEST(VertexInsert, CreatesTables) {
  DynGraphMap g(config(false));
  const std::vector<VertexId> ids = {3, 5, 7};
  g.insert_vertices(ids);
  for (VertexId v : ids) EXPECT_TRUE(g.vertex_live(v));
  EXPECT_FALSE(g.vertex_live(4));
}

TEST(VertexInsert, DegreeHintsSizeBuckets) {
  DynGraphMap g(config(false));
  const std::vector<VertexId> ids = {1, 2};
  const std::vector<std::uint32_t> hints = {300, 0};
  g.insert_vertices(ids, hints);
  // Vertex 1: ceil(300 / (0.7*15)) = 29 buckets; vertex 2: 1 bucket.
  const GraphMemoryStats stats = g.memory_stats();
  EXPECT_EQ(stats.base_slabs, 29u + 1u);
}

TEST(VertexInsert, HintSizeMismatchThrows) {
  DynGraphMap g(config(false));
  const std::vector<VertexId> ids = {1, 2};
  const std::vector<std::uint32_t> hints = {300};
  EXPECT_THROW(g.insert_vertices(ids, hints), std::invalid_argument);
}

TEST(VertexInsert, GrowsDictionaryPastCapacity) {
  DynGraphMap g(config(false, 8));
  const std::vector<VertexId> ids = {1000};
  g.insert_vertices(ids);
  EXPECT_GE(g.vertex_capacity(), 1001u);
  EXPECT_TRUE(g.vertex_live(1000));
}

TEST(VertexInsert, ThenInsertEdgesViaAlgorithm1) {
  // §IV-D1: vertex insertion = dictionary entry + Algorithm 1 for edges.
  DynGraphMap g(config(false));
  const std::vector<VertexId> ids = {10};
  const std::vector<std::uint32_t> hints = {50};
  g.insert_vertices(ids, hints);
  const auto edges = star(10, 50);
  EXPECT_EQ(g.insert_edges(edges), 50u);
  EXPECT_EQ(g.degree(10), 50u);
}

TEST(VertexDeleteUndirected, RemovesVertexFromNeighborLists) {
  DynGraphMap g(config(true));
  // Triangle 1-2-3 plus pendant 3-4.
  std::vector<WeightedEdge> edges = {{1, 2, 0}, {2, 3, 0}, {1, 3, 0}, {3, 4, 0}};
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {3};
  g.delete_vertices(doomed);
  // 3 is gone everywhere (Algorithm 2 cleanup).
  EXPECT_FALSE(g.vertex_live(3));
  EXPECT_FALSE(g.edge_exists(1, 3));
  EXPECT_FALSE(g.edge_exists(2, 3));
  EXPECT_FALSE(g.edge_exists(4, 3));
  EXPECT_FALSE(g.edge_exists(3, 1));  // "querying Au returns no edges"
  EXPECT_EQ(g.degree(3), 0u);
  // Untouched edges survive with exact counts.
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(VertexDeleteUndirected, FreesDynamicSlabsKeepsBase) {
  DynGraphMap g(config(true, 4096));
  // A hub with 500 neighbours chains far past its base slab.
  std::vector<WeightedEdge> edges;
  for (std::uint32_t v = 1; v <= 500; ++v) edges.push_back({0, v, 0});
  g.insert_edges(edges);
  const auto arena_before = g.arena_stats();
  EXPECT_GT(arena_before.dynamic_slabs, 0u);
  const std::vector<VertexId> doomed = {0};
  g.delete_vertices(doomed);
  const auto arena_after = g.arena_stats();
  // Hub's overflow chain reclaimed ("all dynamically allocated memory ...
  // is freed"); bulk/base slabs are not ("statically allocated memory is
  // not reclaimed").
  EXPECT_EQ(arena_after.dynamic_slabs, 0u);
  EXPECT_EQ(arena_after.bulk_slabs, arena_before.bulk_slabs);
}

TEST(VertexDeleteUndirected, BatchDeletionWithSharedNeighbors) {
  DynGraphMap g(config(true));
  // Clique of 8: delete half of it in one batch.
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) edges.push_back({u, v, 0});
  }
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {0, 1, 2, 3};
  g.delete_vertices(doomed);
  for (VertexId u = 0; u < 4; ++u) {
    EXPECT_FALSE(g.vertex_live(u));
    EXPECT_EQ(g.degree(u), 0u);
  }
  for (VertexId u = 4; u < 8; ++u) {
    EXPECT_EQ(g.degree(u), 3u);  // only the other survivors remain
    for (VertexId v = 0; v < 4; ++v) ASSERT_FALSE(g.edge_exists(u, v));
    for (VertexId v = 4; v < 8; ++v) {
      ASSERT_EQ(g.edge_exists(u, v), u != v);
    }
  }
}

TEST(VertexDeleteDirected, FollowUpSweepCleansIncomingEdges) {
  DynGraphMap g(config(false));
  std::vector<WeightedEdge> edges = {
      {1, 3, 0}, {2, 3, 0}, {3, 1, 0}, {1, 2, 0}};
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {3};
  g.delete_vertices(doomed);
  // Incoming edges to 3 were found by the sweep even without reverse links.
  EXPECT_FALSE(g.edge_exists(1, 3));
  EXPECT_FALSE(g.edge_exists(2, 3));
  EXPECT_FALSE(g.edge_exists(3, 1));
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(VertexDelete, NoFalsePositivesAfterDeletion) {
  // "After a deletion, no edge query involving u may have a false positive."
  DynGraphSet g(config(true));
  std::vector<WeightedEdge> edges;
  for (VertexId v = 1; v <= 40; ++v) edges.push_back({0, v, 0});
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {0};
  g.delete_vertices(doomed);
  for (VertexId v = 0; v <= 41; ++v) {
    ASSERT_FALSE(g.edge_exists(0, v));
    ASSERT_FALSE(g.edge_exists(v, 0));
  }
}

TEST(VertexDelete, ReinsertionRevivesVertex) {
  DynGraphMap g(config(true));
  std::vector<WeightedEdge> edges = {{1, 2, 5}};
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {1};
  g.delete_vertices(doomed);
  EXPECT_FALSE(g.vertex_live(1));
  // Inserting edges for vertex 1 again brings it back, reusing its base
  // slabs (the paper's structure never reclaims them).
  std::vector<WeightedEdge> revived = {{1, 5, 9}};
  g.insert_edges(revived);
  EXPECT_TRUE(g.vertex_live(1));
  EXPECT_TRUE(g.edge_exists(1, 5));
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_FALSE(g.edge_exists(1, 2));  // the old adjacency did not resurrect
}

TEST(VertexDelete, UnknownOrRepeatIdsAreTolerated) {
  DynGraphMap g(config(true));
  std::vector<WeightedEdge> edges = {{1, 2, 0}};
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {1, 1, 99};  // repeat + never-seen id
  EXPECT_NO_THROW(g.delete_vertices(doomed));
  EXPECT_FALSE(g.edge_exists(2, 1));
  EXPECT_EQ(g.degree(2), 0u);
  // A repeated id whose table owns an overflow chain must be cleared once:
  // two clears of one table free its overflow slabs twice (ArenaFault, or
  // a slab handed out to two chains).
  for (const bool undirected : {false, true}) {
    GraphConfig cfg = config(undirected, 512);
    cfg.auto_rehash_p99_slabs = 0;  // keep the 1-bucket table's chain
    DynGraphMap chained(cfg);
    std::vector<WeightedEdge> star_edges = star(0, 200);
    const std::vector<WeightedEdge> tail = {{300, 301, 0}, {302, 0, 0}};
    star_edges.insert(star_edges.end(), tail.begin(), tail.end());
    chained.insert_edges(star_edges);
    ASSERT_GT(chained.memory_stats().overflow_slabs, 0u);
    const std::vector<VertexId> repeated = {0, 0, 0, 300, 0, 300};
    ASSERT_NO_THROW(chained.delete_vertices(repeated));
    EXPECT_EQ(chained.degree(0), 0u);
    EXPECT_EQ(chained.num_edges(), 0u);
    // Arena and tables agree: every live dynamic slab is an overflow slab
    // some chain still owns, every live bulk slab a base slab.
    const GraphMemoryStats mem = chained.memory_stats();
    const memory::ArenaStats arena = chained.arena_stats();
    EXPECT_EQ(arena.dynamic_slabs, mem.overflow_slabs);
    EXPECT_EQ(arena.bulk_slabs, mem.base_slabs);
    // The freed chain is reusable exactly once: reinsertion grows it back
    // without the arena handing one slab to two chains.
    chained.insert_edges(star(0, 200));
    EXPECT_EQ(chained.degree(0), 200u);
    EXPECT_EQ(chained.arena_stats().dynamic_slabs,
              chained.memory_stats().overflow_slabs);
  }
}

TEST(VertexDeleteDirected, SweepCoversThePartialLastVertexBlock) {
  // 2500 ids: two full sweep blocks of 1024 plus a partial one. The doomed
  // vertex and some of its in-neighbours sit in that last partial block.
  constexpr std::uint32_t kCapacity = 2500;
  DynGraphMap g(config(false, kCapacity));
  const VertexId doomed_id = kCapacity - 3;
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < kCapacity; u += 97) {
    if (u != doomed_id) edges.push_back({u, doomed_id, u});
  }
  const std::vector<WeightedEdge> extra = {
      {kCapacity - 1, doomed_id, 1}, {kCapacity - 2, doomed_id, 2},
      {kCapacity - 1, 5, 3},         {doomed_id, 7, 4},
      {doomed_id, kCapacity - 1, 5}, {1500, 2, 6}};
  edges.insert(edges.end(), extra.begin(), extra.end());
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {doomed_id};
  g.delete_vertices(doomed);
  for (VertexId u = 0; u < kCapacity; ++u) {
    ASSERT_FALSE(g.edge_exists(u, doomed_id)) << "in-edge from " << u;
  }
  EXPECT_EQ(g.degree(doomed_id), 0u);
  EXPECT_EQ(g.degree(kCapacity - 1), 1u);  // keeps (kCapacity - 1, 5)
  EXPECT_TRUE(g.edge_exists(kCapacity - 1, 5));
  EXPECT_EQ(g.degree(kCapacity - 2), 0u);
  EXPECT_TRUE(g.edge_exists(1500, 2));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(VertexDelete, LargeBatchLoadImbalance) {
  // Algorithm 2's work queue exists to balance wildly differing degrees:
  // one hub plus many low-degree vertices deleted together.
  DynGraphSet g(config(true, 4096));
  std::vector<WeightedEdge> edges;
  for (VertexId v = 1; v <= 900; ++v) edges.push_back({0, v, 0});
  for (VertexId v = 1000; v < 1100; ++v) edges.push_back({v, v + 1000, 0});
  g.insert_edges(edges);
  std::vector<VertexId> doomed = {0};
  for (VertexId v = 1000; v < 1100; ++v) doomed.push_back(v);
  g.delete_vertices(doomed);
  EXPECT_EQ(g.degree(0), 0u);
  for (VertexId v = 1; v <= 900; ++v) ASSERT_EQ(g.degree(v), 0u);
  for (VertexId v = 1000; v < 1100; ++v) {
    ASSERT_EQ(g.degree(v + 1000), 0u);
    ASSERT_FALSE(g.edge_exists(v + 1000, v));
  }
}

TEST(VertexDelete, EmptyBatchIsNoop) {
  DynGraphMap g(config(true));
  std::vector<WeightedEdge> edges = {{1, 2, 0}};
  g.insert_edges(edges);
  g.delete_vertices({});
  EXPECT_TRUE(g.edge_exists(1, 2));
}

TEST(VertexDelete, SetVariantUndirectedCleanup) {
  DynGraphSet g(config(true));
  std::vector<WeightedEdge> edges = {{1, 2, 0}, {2, 3, 0}, {1, 3, 0}};
  g.insert_edges(edges);
  const std::vector<VertexId> doomed = {2};
  g.delete_vertices(doomed);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(3, 2));
  EXPECT_TRUE(g.edge_exists(1, 3));
  EXPECT_EQ(g.num_edges(), 2u);
}

}  // namespace
}  // namespace sg::core
