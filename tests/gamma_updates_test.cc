// Integration tests for Gamma's update queries (Table 3 semantics):
// appends, deletes and the three modify variants, with index maintenance
// through deferred-update files.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/partition.h"
#include "gamma/machine.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::gamma {
namespace {

using catalog::PartitionSpec;
using catalog::TupleView;
using exec::Predicate;
namespace wis = gammadb::wisconsin;

class GammaUpdatesTest : public ::testing::Test {
 protected:
  GammaUpdatesTest() : machine_(Config()) {
    tuples_ = wis::GenerateWisconsin(1000, 3);
    EXPECT_TRUE(machine_
                    .CreateRelation("R", wis::WisconsinSchema(),
                                    PartitionSpec::Hashed(wis::kUnique1))
                    .ok());
    EXPECT_TRUE(machine_.LoadTuples("R", tuples_).ok());
    EXPECT_TRUE(machine_.BuildIndex("R", wis::kUnique1, true).ok());
    EXPECT_TRUE(machine_.BuildIndex("R", wis::kUnique2, false).ok());
  }

  static GammaConfig Config() {
    GammaConfig config;
    config.num_disk_nodes = 4;
    config.num_diskless_nodes = 0;
    return config;
  }

  std::vector<uint8_t> MakeTuple(int32_t u1, int32_t u2) {
    catalog::TupleBuilder builder(&wis::WisconsinSchema());
    builder.SetInt(wis::kUnique1, u1).SetInt(wis::kUnique2, u2);
    builder.SetChar(wis::kStringU1, "new");
    return {builder.bytes().begin(), builder.bytes().end()};
  }

  /// Returns the unique2 value of the tuple with the given unique1, or -1.
  int32_t Unique2Of(int32_t u1) {
    const auto tuples = machine_.ReadRelation("R");
    for (const auto& tuple : *tuples) {
      const TupleView view(&wis::WisconsinSchema(), tuple);
      if (view.GetInt(wis::kUnique1) == u1) {
        return view.GetInt(wis::kUnique2);
      }
    }
    return -1;
  }

  GammaMachine machine_;
  std::vector<std::vector<uint8_t>> tuples_;
};

TEST_F(GammaUpdatesTest, AppendAddsTuple) {
  AppendQuery query;
  query.relation = "R";
  query.tuple = MakeTuple(5000, 5000);
  const auto result = machine_.RunAppend(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*machine_.CountTuples("R"), 1001u);
  EXPECT_EQ(Unique2Of(5000), 5000);

  // The new tuple is findable through the maintained indices.
  SelectQuery select;
  select.relation = "R";
  select.predicate = Predicate::Eq(wis::kUnique2, 5000);
  select.access = AccessPath::kNonClusteredIndex;
  select.store_result = false;
  const auto found = machine_.RunSelect(select);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->result_tuples, 1u);
}

TEST_F(GammaUpdatesTest, AppendWithIndexCostsMore) {
  GammaMachine bare(Config());
  ASSERT_TRUE(bare.CreateRelation("R", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(bare.LoadTuples("R", tuples_).ok());

  AppendQuery query;
  query.relation = "R";
  query.tuple = MakeTuple(6000, 6000);
  const auto no_index = bare.RunAppend(query);
  const auto with_index = machine_.RunAppend(query);
  ASSERT_TRUE(no_index.ok());
  ASSERT_TRUE(with_index.ok());
  // Table 3 rows 1-2: maintaining the indices (via the deferred-update
  // file) costs measurably more than a bare append.
  EXPECT_GT(with_index->seconds(), no_index->seconds() + 0.05);
}

TEST_F(GammaUpdatesTest, DeleteRemovesTupleAndIndexEntries) {
  DeleteQuery query;
  query.relation = "R";
  query.key_attr = wis::kUnique1;
  query.key = 123;
  const auto result = machine_.RunDelete(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("R"), 999u);
  EXPECT_EQ(Unique2Of(123), -1);

  // Index no longer finds it.
  SelectQuery select;
  select.relation = "R";
  select.predicate = Predicate::Eq(wis::kUnique1, 123);
  select.store_result = false;
  const auto found = machine_.RunSelect(select);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->result_tuples, 0u);

  // Deleting again is a no-op.
  const auto again = machine_.RunDelete(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result_tuples, 0u);
}

TEST_F(GammaUpdatesTest, ModifyNonIndexedAttributeInPlace) {
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique1;
  query.locate_key = 42;
  query.target_attr = wis::kTen;
  query.new_value = 77;
  const auto result = machine_.RunModify(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  const auto all = machine_.ReadRelation("R");
  for (const auto& tuple : *all) {
    const TupleView view(&wis::WisconsinSchema(), tuple);
    if (view.GetInt(wis::kUnique1) == 42) {
      EXPECT_EQ(view.GetInt(wis::kTen), 77);
    }
  }
  EXPECT_EQ(*machine_.CountTuples("R"), 1000u);
}

TEST_F(GammaUpdatesTest, ModifyKeyAttributeRelocates) {
  const int32_t old_u2 = Unique2Of(10);
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique1;
  query.locate_key = 10;
  query.target_attr = wis::kUnique1;
  query.new_value = 8888;
  const auto result = machine_.RunModify(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  EXPECT_EQ(Unique2Of(10), -1);
  EXPECT_EQ(Unique2Of(8888), old_u2);
  EXPECT_EQ(*machine_.CountTuples("R"), 1000u);

  // Both the clustered index (at the new home) and the secondary index
  // still locate the relocated tuple.
  SelectQuery by_key;
  by_key.relation = "R";
  by_key.predicate = Predicate::Eq(wis::kUnique1, 8888);
  by_key.store_result = false;
  EXPECT_EQ(machine_.RunSelect(by_key)->result_tuples, 1u);
  SelectQuery by_u2;
  by_u2.relation = "R";
  by_u2.predicate = Predicate::Eq(wis::kUnique2, old_u2);
  by_u2.access = AccessPath::kNonClusteredIndex;
  by_u2.store_result = false;
  EXPECT_EQ(machine_.RunSelect(by_u2)->result_tuples, 1u);
}

TEST_F(GammaUpdatesTest, ModifyIndexedAttributeUpdatesIndex) {
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique2;
  query.locate_key = 500;
  query.target_attr = wis::kUnique2;
  query.new_value = 7777;
  const auto result = machine_.RunModify(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);

  SelectQuery old_value;
  old_value.relation = "R";
  old_value.predicate = Predicate::Eq(wis::kUnique2, 500);
  old_value.access = AccessPath::kNonClusteredIndex;
  old_value.store_result = false;
  EXPECT_EQ(machine_.RunSelect(old_value)->result_tuples, 0u);
  SelectQuery new_value = old_value;
  new_value.predicate = Predicate::Eq(wis::kUnique2, 7777);
  EXPECT_EQ(machine_.RunSelect(new_value)->result_tuples, 1u);
}

TEST_F(GammaUpdatesTest, UpdateTimesAreSubSecond) {
  // Table 3: every Gamma single-tuple update lands well under two seconds
  // regardless of relation size; sanity-check the model's magnitudes.
  AppendQuery append{.relation = "R", .tuple = MakeTuple(9999, 9999)};
  const auto a = machine_.RunAppend(append);
  EXPECT_LT(a->seconds(), 2.0);
  EXPECT_GT(a->seconds(), 0.01);

  DeleteQuery del{.relation = "R", .key_attr = wis::kUnique1, .key = 9999};
  const auto d = machine_.RunDelete(del);
  EXPECT_LT(d->seconds(), 2.0);
}

/// The site a refused relocation finds dead.
enum class DeadSite { kNewHome, kOldBackup, kNewBackup };

/// Relocates unique1 = 10 to a key homed elsewhere while `which` site is
/// dead: the modify must be refused before anything is written, so every
/// fragment's tuple count and the relation's contents stay put.
void ExpectRefusedRelocationChangesNothing(GammaMachine& machine,
                                           DeadSite which) {
  const int nodes = machine.config().num_disk_nodes;
  const auto& meta = **machine.catalog().Get("R");
  const catalog::Partitioner partitioner(&meta.partitioning, &meta.schema,
                                         nodes);
  const int old_home = partitioner.NodeForKey(10);
  auto site_to_kill = [&](int new_home) {
    switch (which) {
      case DeadSite::kNewHome:
        return new_home;
      case DeadSite::kOldBackup:
        return (old_home + 1) % nodes;
      case DeadSite::kNewBackup:
        return (new_home + 1) % nodes;
    }
    return -1;
  };
  // A new key homed away from the old home, whose dead site is only the
  // one under test.
  int32_t new_value = 5000;
  for (;; ++new_value) {
    const int new_home = partitioner.NodeForKey(new_value);
    const int dead = site_to_kill(new_home);
    if (new_home != old_home && dead != old_home &&
        (which == DeadSite::kNewHome || dead != new_home)) {
      break;
    }
  }
  const int dead = site_to_kill(partitioner.NodeForKey(new_value));

  auto fragment_counts = [&] {
    std::vector<uint64_t> counts;
    for (int n = 0; n < nodes; ++n) {
      counts.push_back(machine.node(n)
                           .file(meta.per_node_file[static_cast<size_t>(n)])
                           .num_tuples());
    }
    return counts;
  };
  auto sorted_contents = [&] {
    std::vector<std::vector<uint8_t>> tuples = *machine.ReadRelation("R");
    std::sort(tuples.begin(), tuples.end());
    return tuples;
  };
  const std::vector<uint64_t> counts_before = fragment_counts();
  const auto contents_before = sorted_contents();

  machine.KillNode(dead);
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique1;
  query.locate_key = 10;
  query.target_attr = wis::kUnique1;
  query.new_value = new_value;
  const auto result = machine.RunModify(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  machine.ReviveNode(dead);

  EXPECT_EQ(fragment_counts(), counts_before);
  EXPECT_EQ(sorted_contents(), contents_before);
  EXPECT_EQ(*machine.CountTuples("R"), 1000u);
}

TEST_F(GammaUpdatesTest, RelocationIntoDeadSiteIsRefusedBeforeAnyWrite) {
  ExpectRefusedRelocationChangesNothing(machine_, DeadSite::kNewHome);
}

TEST(GammaUpdatesBackupTest, RelocationWithDeadBackupIsRefusedBeforeAnyWrite) {
  // Without a log, a dead backup host on either end of a relocation blocks
  // it: there is no mirrored=false record for reintegration to replay.
  GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  for (const DeadSite which : {DeadSite::kOldBackup, DeadSite::kNewBackup}) {
    GammaMachine machine(config);
    ASSERT_TRUE(machine
                    .CreateRelation("R", wis::WisconsinSchema(),
                                    PartitionSpec::Hashed(wis::kUnique1))
                    .ok());
    ASSERT_TRUE(machine.LoadTuples("R", wis::GenerateWisconsin(1000, 3)).ok());
    ExpectRefusedRelocationChangesNothing(machine, which);
  }
}

}  // namespace
}  // namespace gammadb::gamma
