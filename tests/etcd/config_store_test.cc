#include "etcd/config_store.h"

#include <gtest/gtest.h>

namespace diesel::etcd {
namespace {

class ConfigStoreTest : public ::testing::Test {
 protected:
  ConfigStoreTest() : cluster_(3), fabric_(cluster_), store_(fabric_, 2) {}
  sim::Cluster cluster_;
  net::Fabric fabric_;
  ConfigStore store_;
  sim::VirtualClock clock_;
};

TEST_F(ConfigStoreTest, PutGetDelete) {
  auto rev = store_.Put(clock_, 0, "/cfg/a", "1");
  ASSERT_TRUE(rev.ok());
  EXPECT_EQ(*rev, 1u);
  auto entry = store_.Get(clock_, 0, "/cfg/a");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->value, "1");
  EXPECT_EQ(entry->create_revision, 1u);
  EXPECT_EQ(entry->mod_revision, 1u);
  auto del = store_.Delete(clock_, 0, "/cfg/a");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*del, 2u);
  EXPECT_TRUE(store_.Get(clock_, 0, "/cfg/a").status().IsNotFound());
  EXPECT_TRUE(store_.Delete(clock_, 0, "/cfg/a").status().IsNotFound());
}

TEST_F(ConfigStoreTest, RevisionsMonotonicAndModTracked) {
  ASSERT_TRUE(store_.Put(clock_, 0, "/k", "v1").ok());
  ASSERT_TRUE(store_.Put(clock_, 0, "/k", "v2").ok());
  auto entry = store_.Get(clock_, 0, "/k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->create_revision, 1u);
  EXPECT_EQ(entry->mod_revision, 2u);
}

TEST_F(ConfigStoreTest, ListByPrefixIsSorted) {
  ASSERT_TRUE(store_.Put(clock_, 0, "/s/2", "b").ok());
  ASSERT_TRUE(store_.Put(clock_, 0, "/s/1", "a").ok());
  ASSERT_TRUE(store_.Put(clock_, 0, "/t/9", "x").ok());
  auto entries = store_.List(clock_, 0, "/s/");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].key, "/s/1");
  EXPECT_EQ((*entries)[1].key, "/s/2");
}

TEST_F(ConfigStoreTest, OpsChargeVirtualTime) {
  Nanos before = clock_.now();
  ASSERT_TRUE(store_.Put(clock_, 0, "/t", "v").ok());
  EXPECT_GT(clock_.now(), before);
}

TEST_F(ConfigStoreTest, DownNodeMakesStoreUnavailable) {
  cluster_.FailNode(2);
  EXPECT_TRUE(store_.Put(clock_, 0, "/x", "v").status().IsUnavailable());
}

TEST(ServerAdvertisementTest, RoundTrip) {
  std::string value = ServerValue(17, "diesel-server");
  auto node = ParseServerNode(value);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 17u);
  EXPECT_FALSE(ParseServerNode("garbage").ok());
  EXPECT_FALSE(ParseServerNode("x;info").ok());
}

TEST(ServerAdvertisementTest, KeysAreSortable) {
  EXPECT_LT(ServerKey(1), ServerKey(2));
  EXPECT_LT(ServerKey(9), ServerKey(10));  // zero-padded
}

}  // namespace
}  // namespace diesel::etcd
