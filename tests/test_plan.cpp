// Execution-plan tests: the coloring validity properties the whole
// race-freedom argument rests on, checked on regular and randomized meshes
// for every strategy and several block sizes.
//
// Properties:
//  P1 block coloring: two blocks of the same color share no increment target
//  P2 element coloring (TwoLevel/BlockPermute): same-color elements within a
//     block share no target
//  P3 full permute: same-color elements globally share no target
//  P4 permutations are bijections; CSR structures are consistent
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/op2.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

struct PlanFixture {
  mesh::UnstructuredMesh m;
  Set cells, edges;
  Map e2c;
  std::vector<IncRef> conflicts;

  explicit PlanFixture(mesh::UnstructuredMesh mesh)
      : m(std::move(mesh)),
        cells("cells", m.ncells),
        edges("edges", m.nedges),
        e2c("e2c", edges, cells, 2, m.edge_cells),
        conflicts{{&e2c, 0}, {&e2c, 1}} {}

  std::pair<idx_t, idx_t> targets(idx_t e) const { return {e2c(e, 0), e2c(e, 1)}; }
};

class PlanP : public ::testing::TestWithParam<std::tuple<int, int>> {
  // (mesh kind, block size)
 public:
  static PlanFixture make_fixture(int kind) {
    switch (kind) {
      case 0: return PlanFixture(mesh::make_quad_box(23, 17));
      case 1: return PlanFixture(mesh::make_tri_periodic(12, 9));
      case 2: {
        auto m = mesh::make_airfoil_omesh(24, 11);
        return PlanFixture(std::move(m));
      }
      default: {
        auto m = mesh::make_quad_box(31, 13);
        mesh::shuffle_edges(m, 77);  // adversarial edge ordering
        return PlanFixture(std::move(m));
      }
    }
  }
};

TEST_P(PlanP, BlockColoringIsValid) {
  auto [kind, bs] = GetParam();
  auto f = PlanP::make_fixture(kind);
  const auto plan = build_plan(f.m.nedges, f.conflicts, bs, ColoringStrategy::TwoLevel);

  ASSERT_EQ(plan->nblocks, (f.m.nedges + bs - 1) / bs);
  // P1: per color, no two blocks touch the same cell.
  for (int col = 0; col < plan->nblock_colors; ++col) {
    std::set<idx_t> touched;
    for (idx_t b : plan->color_blocks[col]) {
      std::set<idx_t> block_touched;
      for (idx_t e = plan->block_begin(b); e < plan->block_end(b); ++e) {
        auto [c0, c1] = f.targets(e);
        block_touched.insert(c0);
        block_touched.insert(c1);
      }
      for (idx_t c : block_touched)
        EXPECT_TRUE(touched.insert(c).second)
            << "cell " << c << " touched by two blocks of color " << col;
    }
  }
}

TEST_P(PlanP, ElementColoringWithinBlocksIsValid) {
  auto [kind, bs] = GetParam();
  auto f = PlanP::make_fixture(kind);
  const auto plan = build_plan(f.m.nedges, f.conflicts, bs, ColoringStrategy::TwoLevel);

  // P2: within a block, same-color elements have disjoint targets.
  for (idx_t b = 0; b < plan->nblocks; ++b) {
    std::map<int, std::set<idx_t>> per_color;
    for (idx_t e = plan->block_begin(b); e < plan->block_end(b); ++e) {
      const int col = plan->elem_color[e];
      ASSERT_GE(col, 0);
      ASSERT_LT(col, plan->block_nelem_colors[b]);
      auto [c0, c1] = f.targets(e);
      EXPECT_TRUE(per_color[col].insert(c0).second)
          << "block " << b << " color " << col << " shares cell " << c0;
      EXPECT_TRUE(per_color[col].insert(c1).second);
    }
  }
}

TEST_P(PlanP, FullPermuteColoringIsValid) {
  auto [kind, bs] = GetParam();
  auto f = PlanP::make_fixture(kind);
  const auto plan = build_plan(f.m.nedges, f.conflicts, bs, ColoringStrategy::FullPermute);

  // P4: permute is a bijection.
  std::set<idx_t> seen(plan->permute.begin(), plan->permute.end());
  ASSERT_EQ(seen.size(), std::size_t(f.m.nedges));
  ASSERT_EQ(plan->color_offsets.front(), 0);
  ASSERT_EQ(plan->color_offsets.back(), f.m.nedges);

  // P3: same-color elements globally disjoint.
  for (int col = 0; col < plan->nglobal_colors; ++col) {
    std::set<idx_t> touched;
    for (idx_t k = plan->color_offsets[col]; k < plan->color_offsets[col + 1]; ++k) {
      auto [c0, c1] = f.targets(plan->permute[k]);
      EXPECT_TRUE(touched.insert(c0).second) << "global color " << col;
      EXPECT_TRUE(touched.insert(c1).second);
    }
  }
}

TEST_P(PlanP, BlockPermuteStructureIsValid) {
  auto [kind, bs] = GetParam();
  auto f = PlanP::make_fixture(kind);
  const auto plan = build_plan(f.m.nedges, f.conflicts, bs, ColoringStrategy::BlockPermute);

  std::set<idx_t> seen;
  for (idx_t b = 0; b < plan->nblocks; ++b) {
    const idx_t* off = plan->bcol_off.data() + plan->bcol_base[b];
    const int nc = plan->block_nelem_colors[b];
    ASSERT_EQ(off[0], plan->block_begin(b));
    ASSERT_EQ(off[nc], plan->block_end(b));
    for (int c = 0; c < nc; ++c) {
      std::set<idx_t> touched;
      for (idx_t k = off[c]; k < off[c + 1]; ++k) {
        const idx_t e = plan->block_permute[k];
        // Elements belong to their block's range.
        ASSERT_GE(e, plan->block_begin(b));
        ASSERT_LT(e, plan->block_end(b));
        EXPECT_TRUE(seen.insert(e).second) << "element " << e << " appears twice";
        auto [c0, c1] = f.targets(e);
        EXPECT_TRUE(touched.insert(c0).second)
            << "block " << b << " color run " << c << " shares cell " << c0;
        EXPECT_TRUE(touched.insert(c1).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), std::size_t(f.m.nedges));
}

INSTANTIATE_TEST_SUITE_P(MeshesAndBlocks, PlanP,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(16, 64, 256, 1024)));

TEST(Plan, NoConflictsMeansOneColor) {
  const auto plan = build_plan(1000, {}, 64, ColoringStrategy::TwoLevel);
  EXPECT_EQ(plan->nblock_colors, 1);
  EXPECT_EQ(plan->max_elem_colors, 1);
  EXPECT_EQ(plan->color_blocks[0].size(), std::size_t(plan->nblocks));
}

TEST(Plan, EmptySet) {
  const auto plan = build_plan(0, {}, 64, ColoringStrategy::FullPermute);
  EXPECT_EQ(plan->nblocks, 0);
  EXPECT_EQ(plan->nglobal_colors, 0);
}

TEST(Plan, RaggedLastBlock) {
  const auto plan = build_plan(100, {}, 64, ColoringStrategy::TwoLevel);
  EXPECT_EQ(plan->nblocks, 2);
  EXPECT_EQ(plan->block_begin(1), 64);
  EXPECT_EQ(plan->block_end(1), 100);
}

TEST(Plan, RejectsBadBlockSize) {
  EXPECT_THROW(build_plan(100, {}, 0, ColoringStrategy::TwoLevel), Error);
  EXPECT_THROW(build_plan(100, {}, 20, ColoringStrategy::TwoLevel), Error);  // not mult of 16
}

TEST(Plan, ColorCountsAreReasonable) {
  // A quad mesh edge loop needs few colors (bounded by local degree).
  auto f = PlanP::make_fixture(0);
  const auto p1 = build_plan(f.m.nedges, f.conflicts, 256, ColoringStrategy::TwoLevel);
  EXPECT_LE(p1->nblock_colors, 16);
  EXPECT_LE(p1->max_elem_colors, 8);
  const auto p2 = build_plan(f.m.nedges, f.conflicts, 256, ColoringStrategy::FullPermute);
  EXPECT_LE(p2->nglobal_colors, 8);
  EXPECT_GE(p2->nglobal_colors, 2);
}

TEST(PlanCache, ReturnsSamePlanForSameKey) {
  auto m = mesh::make_quad_box(10, 10);
  Set cells("cells", m.ncells), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  PlanCache::instance().clear();
  const std::vector<IncRef> conflicts = {{&e2c, 0}, {&e2c, 1}};
  auto a = PlanCache::instance().get(edges, conflicts, 64, ColoringStrategy::TwoLevel);
  auto b = PlanCache::instance().get(edges, conflicts, 64, ColoringStrategy::TwoLevel);
  EXPECT_EQ(a.get(), b.get()) << "same key must hit the cache";
  auto c = PlanCache::instance().get(edges, conflicts, 128, ColoringStrategy::TwoLevel);
  EXPECT_NE(a.get(), c.get()) << "different block size is a different plan";
  auto d = PlanCache::instance().get(edges, conflicts, 64, ColoringStrategy::FullPermute);
  EXPECT_NE(a.get(), d.get()) << "different strategy is a different plan";
  // Duplicate/unordered conflicts normalize to the same key.
  const std::vector<IncRef> shuffled = {{&e2c, 1}, {&e2c, 0}, {&e2c, 1}};
  auto e = PlanCache::instance().get(edges, shuffled, 64, ColoringStrategy::TwoLevel);
  EXPECT_EQ(a.get(), e.get());
  EXPECT_GE(PlanCache::instance().size(), 3u);
}

TEST(PlanCache, ConcurrentGetSharesOneBuild) {
  // Single-flight: a burst of threads asking for the same (and a handful of
  // distinct) keys must all resolve to one shared plan per key, without
  // duplicate-insert races. The permuted arrays are immutable, so pointer
  // identity across threads is the whole contract.
  auto m = mesh::make_quad_box(40, 40);
  Set cells("cells", m.ncells), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  PlanCache::instance().clear();
  const std::vector<IncRef> conflicts = {{&e2c, 0}, {&e2c, 1}};
  constexpr int kThreads = 8;
  const int block_sizes[kThreads] = {64, 64, 64, 64, 128, 128, 256, 256};
  std::vector<std::shared_ptr<const Plan>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[t] =
          PlanCache::instance().get(edges, conflicts, block_sizes[t], ColoringStrategy::TwoLevel);
    });
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    if (block_sizes[t] == block_sizes[t - 1]) {
      EXPECT_EQ(got[t].get(), got[t - 1].get()) << "same key must share one build";
    }
  }
  EXPECT_EQ(PlanCache::instance().size(), 3u);
}

TEST(PlanCache, MultiMapConflicts) {
  // Two different maps incrementing two different sets at once (an edge loop
  // writing both cells and nodes): colors must respect both.
  auto m = mesh::make_quad_box(13, 11);
  Set cells("cells", m.ncells), nodes("nodes", m.nnodes), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  Map e2n("e2n", edges, nodes, 2, m.edge_nodes);
  const std::vector<IncRef> conflicts = {{&e2c, 0}, {&e2c, 1}, {&e2n, 0}, {&e2n, 1}};
  const auto plan = build_plan(m.nedges, conflicts, 64, ColoringStrategy::FullPermute);
  for (int col = 0; col < plan->nglobal_colors; ++col) {
    std::set<idx_t> cells_touched, nodes_touched;
    for (idx_t k = plan->color_offsets[col]; k < plan->color_offsets[col + 1]; ++k) {
      const idx_t e = plan->permute[k];
      EXPECT_TRUE(cells_touched.insert(e2c(e, 0)).second);
      EXPECT_TRUE(cells_touched.insert(e2c(e, 1)).second);
      EXPECT_TRUE(nodes_touched.insert(e2n(e, 0)).second);
      EXPECT_TRUE(nodes_touched.insert(e2n(e, 1)).second);
    }
  }
}

}  // namespace
