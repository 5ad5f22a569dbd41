#include "core/deployment.h"

#include <gtest/gtest.h>

namespace diesel::core {
namespace {

TEST(DeploymentTest, NodeLayoutIsDense) {
  DeploymentOptions opts;
  opts.num_client_nodes = 3;
  opts.num_kv_nodes = 2;
  opts.num_servers = 2;
  Deployment dep(opts);
  // clients + storage gateway + kv nodes + servers + etcd.
  EXPECT_EQ(dep.cluster().size(), 3u + 1u + 2u + 2u + 1u);
  EXPECT_EQ(dep.client_node(0), 0u);
  EXPECT_EQ(dep.client_node(2), 2u);
  EXPECT_EQ(dep.storage_node(), 3u);
  EXPECT_EQ(dep.kv_node(0), 4u);
  EXPECT_EQ(dep.kv_node(1), 5u);
  EXPECT_EQ(dep.server_node(0), 6u);
  EXPECT_EQ(dep.server_node(1), 7u);
  EXPECT_EQ(dep.num_servers(), 2u);
  EXPECT_EQ(dep.server(0).node(), 6u);
  EXPECT_EQ(dep.server(1).node(), 7u);
  EXPECT_EQ(dep.etcd_node(), 8u);
}

TEST(DeploymentTest, ServersSelfRegisterAndDiscoveryWorks) {
  DeploymentOptions opts;
  opts.num_servers = 3;
  Deployment dep(opts);
  EXPECT_EQ(dep.config().NumKeys(), 3u);

  sim::VirtualClock clock;
  auto client = dep.MakeClientViaDiscovery(clock, 0, 7, "ds");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT(clock.now(), 0u);  // discovery paid the etcd list RPC
  // The discovered client connects to every registered server.
  EXPECT_EQ(dep.fabric().connections().ConnectionsOf((*client)->endpoint()),
            3u);
}

TEST(DeploymentTest, KvShardsPlacedOnKvNodes) {
  DeploymentOptions opts;
  opts.num_kv_nodes = 3;
  Deployment dep(opts);
  const uint32_t shards = 3 * kv::KvClusterOptions{}.shards_per_node;
  EXPECT_EQ(dep.kv().NumShards(), shards);
  for (uint32_t s = 0; s < shards; ++s) {
    sim::NodeId node = dep.kv().ShardNode(s);
    EXPECT_GE(node, dep.kv_node(0));
    EXPECT_LE(node, dep.kv_node(2));
  }
}

TEST(DeploymentTest, MakeClientConnectsToAllServers) {
  DeploymentOptions opts;
  opts.num_servers = 3;
  Deployment dep(opts);
  auto client = dep.MakeClient(0, 5, "ds");
  EXPECT_EQ(dep.fabric().connections().ConnectionsOf(client->endpoint()), 3u);
}

TEST(DeploymentTest, DistinctDeploymentsAreIsolated) {
  Deployment a({}), b({});
  auto wa = a.MakeClient(0, 0, "ds");
  ASSERT_TRUE(wa->Put("/ds/f", AsBytesView(std::string("x"))).ok());
  ASSERT_TRUE(wa->Flush().ok());
  auto rb = b.MakeClient(0, 0, "ds");
  EXPECT_TRUE(rb->Get("/ds/f").status().IsNotFound());
}

}  // namespace
}  // namespace diesel::core
