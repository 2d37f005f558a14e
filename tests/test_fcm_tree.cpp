#include "fcm/fcm_tree.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "fcm/fcm_sketch.h"
#include "storage_widths.h"

namespace fcm::core {
namespace {

// The paper's running example (Figures 4 and 5): a binary tree with three
// stages of 2/4/8-bit counters and four leaves.
FcmConfig paper_example_config() {
  FcmConfig config;
  config.tree_count = 1;
  config.k = 2;
  config.stage_bits = {2, 4, 8};
  config.leaf_count = 4;
  config.seed = 0x31337;
  return config;
}

// Finds a flow key hashing to the requested leaf.
flow::FlowKey key_for_leaf(const FcmTree& tree, std::size_t leaf) {
  for (std::uint32_t candidate = 1; candidate < 1u << 20; ++candidate) {
    if (tree.leaf_index(flow::FlowKey{candidate}) == leaf) {
      return flow::FlowKey{candidate};
    }
  }
  ADD_FAILURE() << "no key found for leaf " << leaf;
  return flow::FlowKey{0};
}

TEST(FcmTree, SingleIncrement) {
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  const flow::FlowKey key{42};
  EXPECT_EQ(tree.add(key), 1u);
  EXPECT_EQ(tree.query(key), 1u);
  EXPECT_EQ(tree.total_count(), 1u);
}

TEST(FcmTree, QueryOfUnseenKeySharingNoLeafIsZero) {
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  const flow::FlowKey a = key_for_leaf(tree, 0);
  const flow::FlowKey b = key_for_leaf(tree, 3);
  tree.add(a, 2);
  EXPECT_EQ(tree.query(b), 0u);
}

TEST(FcmTree, OverflowCarriesToSecondStage) {
  // 2-bit leaf counts to 2; the third increment trips the marker and lands
  // in stage 2 (paper Figure 4a).
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  const flow::FlowKey key = key_for_leaf(tree, 2);
  tree.add(key);
  tree.add(key);
  EXPECT_FALSE(tree.node_overflowed(1, 2));
  EXPECT_EQ(tree.query(key), 2u);
  tree.add(key);
  EXPECT_TRUE(tree.node_overflowed(1, 2));
  EXPECT_EQ(tree.node_count(1, 2), 2u) << "overflowed leaf contributes 2^b-2";
  EXPECT_EQ(tree.query(key), 3u);
  EXPECT_EQ(tree.total_count(), 3u);
}

TEST(FcmTree, CascadedOverflowReachesThirdStage) {
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  const flow::FlowKey key = key_for_leaf(tree, 0);
  // Capacity before stage 3: leaf 2 + stage-2 14 = 16.
  for (int i = 0; i < 17; ++i) tree.add(key);
  EXPECT_TRUE(tree.node_overflowed(1, 0));
  EXPECT_TRUE(tree.node_overflowed(2, 0));
  EXPECT_EQ(tree.node_count(3, 0), 1u);
  EXPECT_EQ(tree.query(key), 17u);
}

TEST(FcmTree, PaperFigure5FinalState) {
  // 25 packets at leaf 0, 3 at leaf 2 and 6 at leaf 3 reproduce the exact
  // state of Figure 5: C1=[3,0,3,3], C2=[15,5], C3=[9].
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  const flow::FlowKey f_leaf0 = key_for_leaf(tree, 0);
  const flow::FlowKey f_leaf2 = key_for_leaf(tree, 2);
  const flow::FlowKey f_leaf3 = key_for_leaf(tree, 3);
  tree.add(f_leaf0, 25);
  tree.add(f_leaf2, 3);
  tree.add(f_leaf3, 6);

  EXPECT_EQ(tree.stage(1)[0], 3u);
  EXPECT_EQ(tree.stage(1)[1], 0u);
  EXPECT_EQ(tree.stage(1)[2], 3u);
  EXPECT_EQ(tree.stage(1)[3], 3u);
  EXPECT_EQ(tree.stage(2)[0], 15u);
  EXPECT_EQ(tree.stage(2)[1], 5u);
  EXPECT_EQ(tree.stage(3)[0], 9u);

  // Count-queries from the paper: f2 (leaf 0) = 2+14+9 = 25,
  // f1 (leaf 2) = 2+5 = 7.
  EXPECT_EQ(tree.query(f_leaf0), 25u);
  EXPECT_EQ(tree.query(f_leaf2), 7u);
  EXPECT_EQ(tree.total_count(), 34u);
}

TEST(FcmTree, BulkAddMatchesRepeatedUpdates) {
  const FcmConfig config = paper_example_config();
  FcmTree bulk(config, common::make_hash(config.seed, 0));
  FcmTree unit(config, common::make_hash(config.seed, 0));
  const flow::FlowKey key = key_for_leaf(bulk, 1);
  bulk.add(key, 23);
  std::uint64_t last = 0;
  for (int i = 0; i < 23; ++i) last = unit.add(key);
  for (std::size_t l = 1; l <= 3; ++l) {
    for (std::size_t i = 0; i < config.width(l); ++i) {
      EXPECT_EQ(bulk.stage(l)[i], unit.stage(l)[i]) << "stage " << l << " idx " << i;
    }
  }
  EXPECT_EQ(bulk.query(key), last);
}

TEST(FcmTree, AddReturnsPostUpdateEstimate) {
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  const flow::FlowKey key = key_for_leaf(tree, 1);
  for (std::uint64_t i = 1; i <= 40; ++i) {
    EXPECT_EQ(tree.add(key), i);
    EXPECT_EQ(tree.query(key), i);
  }
}

TEST(FcmTree, ClearResetsEverything) {
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  tree.add(flow::FlowKey{7}, 100);
  tree.clear();
  EXPECT_EQ(tree.total_count(), 0u);
  EXPECT_EQ(tree.empty_leaf_count(), 4u);
  EXPECT_EQ(tree.query(flow::FlowKey{7}), 0u);
}

TEST(FcmTree, EmptyLeafCount) {
  const FcmConfig config = paper_example_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));
  EXPECT_EQ(tree.empty_leaf_count(), 4u);
  tree.add(key_for_leaf(tree, 0));
  tree.add(key_for_leaf(tree, 2));
  EXPECT_EQ(tree.empty_leaf_count(), 2u);
}

struct RandomParams {
  std::size_t k;
  std::vector<unsigned> bits;
  std::uint64_t seed;
};

class FcmTreeRandomTest : public ::testing::TestWithParam<RandomParams> {};

TEST_P(FcmTreeRandomTest, NeverUnderestimatesAndPreservesTotal) {
  const auto& p = GetParam();
  FcmConfig config;
  config.tree_count = 1;
  config.k = p.k;
  config.stage_bits = p.bits;
  config.leaf_count = p.k * p.k * 8;
  config.seed = p.seed;
  FcmTree tree(config, common::make_hash(config.seed, 0));

  common::Xoshiro256 rng(p.seed);
  std::map<std::uint32_t, std::uint64_t> truth;
  std::uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(200) + 1);
    // Skewed multiplicities to force overflows.
    const std::uint64_t count = rng.next_below(16) == 0 ? 50 : 1;
    tree.add(flow::FlowKey{key}, count);
    truth[key] += count;
    total += count;
  }
  EXPECT_EQ(tree.total_count(), total) << "feed-forward must not lose counts";
  for (const auto& [key, size] : truth) {
    EXPECT_GE(tree.query(flow::FlowKey{key}), size) << "key " << key;
  }
}

// The total-preservation invariant requires a root wide enough not to
// saturate (the paper's configurations use 32-bit roots; §5 notes the
// analysis assumes the final stage never fills).
INSTANTIATE_TEST_SUITE_P(
    Geometries, FcmTreeRandomTest,
    ::testing::Values(RandomParams{2, {2, 8, 32}, 1}, RandomParams{2, {4, 8, 32}, 2},
                      RandomParams{4, {8, 16, 32}, 3}, RandomParams{8, {8, 16, 32}, 4},
                      RandomParams{16, {8, 16, 32}, 5}, RandomParams{4, {4, 32}, 6},
                      RandomParams{2, {2, 4, 32}, 7}, RandomParams{8, {4, 8, 32}, 8}));

TEST(FcmTree, RootSaturationLosesCountsGracefully) {
  // With a narrow (8-bit) root, counts beyond the tree's capacity are
  // dropped by design; the query saturates at the path capacity instead of
  // wrapping or crashing.
  FcmConfig config;
  config.tree_count = 1;
  config.k = 2;
  config.stage_bits = {2, 4, 8};
  config.leaf_count = 4;
  FcmTree tree(config, common::make_hash(1, 0));
  const flow::FlowKey key{3};
  tree.add(key, 100000);
  const std::uint64_t capacity = 2 + 14 + 254;  // sum of counting maxima
  EXPECT_EQ(tree.query(key), capacity);
  EXPECT_EQ(tree.total_count(), capacity);
}


// --- storage widths ---------------------------------------------------------

FcmConfig width_config(const std::vector<unsigned>& bits) {
  FcmConfig config;
  config.tree_count = 1;
  config.k = 4;
  config.stage_bits = bits;
  config.leaf_count = 64;
  config.seed = 0x31337;
  return config;
}

// One flow's path through every stage: each stage fills to its counting
// max, trips to its marker 2^b - 1 on the next increment and carries
// exactly that increment to its parent, until the root saturates and
// further counts are lost. The steps across each boundary are single
// increments; a second tree takes the same total in one bulk add and ends
// in the same state.
TEST(FcmTreeWidths, EveryStageSaturatesToItsMarkerAndCarriesExactly) {
  for (const auto& bits : testing::kStorageWidthMatrix) {
    SCOPED_TRACE(testing::describe_bits(bits));
    const FcmConfig config = width_config(bits);
    const auto hash = common::make_hash(config.seed, 0);
    FcmTree tree(config, hash);
    const flow::FlowKey key{7};
    const std::size_t levels = config.stage_count();
    std::vector<std::size_t> path;
    for (std::size_t l = 1, node = tree.leaf_index(key); l <= levels;
         ++l, node /= config.k) {
      path.push_back(node);
    }

    std::uint64_t added = 0;
    std::uint64_t capacity = 0;  // counting maxima of the stages filled
    for (std::size_t l = 1; l <= levels; ++l) {
      const std::uint64_t cap = config.counting_max(l);
      const std::uint64_t marker = cap + 1;
      ASSERT_EQ(marker, (std::uint64_t{1} << bits[l - 1]) - 1);
      // A non-leaf stage holds the 1 its child carried when it tripped.
      const std::uint64_t start = l == 1 ? 0 : 1;
      ASSERT_EQ(tree.stage(l)[path[l - 1]], start);
      tree.add(key, cap - 1 - start);
      added += cap - 1 - start;
      EXPECT_EQ(tree.add(key), capacity + cap) << "stage " << l << " at its max";
      ++added;
      EXPECT_EQ(tree.stage(l)[path[l - 1]], cap);
      EXPECT_FALSE(tree.node_overflowed(l, path[l - 1]));
      capacity += cap;
      // The next increment trips the marker and lands in the parent; past
      // the root it is lost.
      const std::uint64_t estimate = tree.add(key);
      ++added;
      EXPECT_EQ(tree.stage(l)[path[l - 1]], marker) << "stage " << l;
      EXPECT_TRUE(tree.node_overflowed(l, path[l - 1]));
      if (l < levels) {
        EXPECT_EQ(tree.stage(l + 1)[path[l]], 1u) << "carry into stage " << l + 1;
        EXPECT_EQ(estimate, added);
      } else {
        EXPECT_EQ(estimate, capacity);
      }
    }
    EXPECT_EQ(tree.query(key), capacity);
    EXPECT_EQ(tree.total_count(), capacity);
    EXPECT_EQ(tree.overflow_promotion_count(), levels);
    tree.check_invariants();

    FcmTree bulk(config, hash);
    EXPECT_EQ(bulk.add(key, added), capacity);
    for (std::size_t l = 1; l <= levels; ++l) {
      for (std::size_t i = 0; i < config.width(l); ++i) {
        ASSERT_EQ(bulk.stage(l)[i], tree.stage(l)[i]) << "stage " << l << " node " << i;
      }
    }
  }
}

// Each stage is resident at its storage width, the narrowest of 1, 2 and 4
// bytes that holds b_l bits; with byte-aligned widths a sketch is resident
// in exactly its logical memory.
TEST(FcmTreeWidths, ResidentStageBytesFollowTheStorageWidths) {
  const auto storage_bytes = [](unsigned b) -> std::size_t {
    return b <= 8 ? 1 : b <= 16 ? 2 : 4;
  };
  for (const auto& bits : testing::kStorageWidthMatrix) {
    SCOPED_TRACE(testing::describe_bits(bits));
    FcmConfig config = width_config(bits);
    config.k = 8;
    config.leaf_count = 512;
    const FcmTree tree(config, common::make_hash(config.seed, 0));
    std::size_t resident = 0;
    std::size_t expected = 0;
    for (std::size_t l = 1; l <= config.stage_count(); ++l) {
      EXPECT_EQ(config.stage_storage_bytes(l), storage_bytes(bits[l - 1]));
      EXPECT_EQ(tree.stage(l).size(), config.width(l));
      resident += tree.stage(l).size_bytes();
      expected += config.width(l) * storage_bytes(bits[l - 1]);
    }
    EXPECT_EQ(resident, expected);
  }

  for (const std::vector<unsigned>& bits :
       {std::vector<unsigned>{8, 16, 32}, std::vector<unsigned>{16, 32}}) {
    SCOPED_TRACE(testing::describe_bits(bits));
    const FcmConfig config = FcmConfig::for_memory(600'000, 2, 8, bits);
    const FcmSketch sketch(config);
    std::size_t resident = 0;
    for (std::size_t t = 0; t < sketch.tree_count(); ++t) {
      std::size_t tree_bytes = 0;
      for (std::size_t l = 1; l <= config.stage_count(); ++l) {
        tree_bytes += sketch.tree(t).stage(l).size_bytes();
      }
      EXPECT_EQ(tree_bytes, config.memory_bytes() / config.tree_count);
      resident += tree_bytes;
    }
    EXPECT_EQ(resident, config.memory_bytes());
    EXPECT_LE(resident, 600'000u);
  }
}

}  // namespace
}  // namespace fcm::core
