#include "fusefs/mount_manager.h"

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel::fusefs {
namespace {

class MountManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<core::Deployment>(core::DeploymentOptions{});
    spec_.name = "mm";
    spec_.num_classes = 2;
    spec_.files_per_class = 10;
    spec_.mean_file_bytes = 512;
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 8 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
    for (uint32_t i = 0; i < 2; ++i) {
      clients_.push_back(deployment_->MakeClient(0, 1 + i, spec_.name));
      ASSERT_TRUE(clients_.back()->FetchSnapshot().ok());
      daemon_.push_back(clients_.back().get());
    }
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
  std::vector<std::unique_ptr<core::DieselClient>> clients_;
  std::vector<core::DieselClient*> daemon_;
  MountManager manager_;
};

TEST_F(MountManagerTest, MountResolveRead) {
  auto mount = manager_.Mount("/mnt/data", daemon_, "/" + spec_.name);
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  auto root = manager_.Resolve("/mnt/data");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->first, mount.value());
  EXPECT_EQ(root->second, "/" + spec_.name + "/");

  // "/mnt/data/train/..." resolves to "/mm/train/...".
  sim::VirtualClock app;
  std::string inner = dlt::FilePath(spec_, 3);  // "/mm/train/clsX/..."
  std::string outer = "/mnt/data" + inner.substr(spec_.name.size() + 1);
  auto content = manager_.ReadFile(app, outer);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_TRUE(dlt::VerifyContent(spec_, 3, content.value()));

  auto ls = manager_.ReadDir(app, "/mnt/data/train");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls->size(), spec_.num_classes);
}

TEST_F(MountManagerTest, RejectsBadMountpoints) {
  EXPECT_FALSE(manager_.Mount("relative", daemon_).ok());
  EXPECT_FALSE(manager_.Mount("/trailing/", daemon_).ok());
  EXPECT_FALSE(manager_.Mount("/dou//ble", daemon_).ok());
  EXPECT_FALSE(manager_.Mount("/ok", {}).ok());  // no daemon clients
}

TEST_F(MountManagerTest, DoubleMountIsAlreadyExists) {
  ASSERT_TRUE(manager_.Mount("/a", daemon_).ok());
  EXPECT_EQ(manager_.Mount("/a", daemon_).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(MountManagerTest, LongestPrefixWins) {
  ASSERT_TRUE(manager_.Mount("/mnt", daemon_, "/" + spec_.name).ok());
  ASSERT_TRUE(manager_.Mount("/mnt/inner", daemon_, "/" + spec_.name).ok());
  auto outer = manager_.Resolve("/mnt/somefile");
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(outer->second, "/" + spec_.name + "/somefile");
  auto inner = manager_.Resolve("/mnt/inner/x");
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->second, "/" + spec_.name + "/x");
  // Prefix match must respect path boundaries.
  EXPECT_TRUE(manager_.Resolve("/mnt2/x").status().IsNotFound());
}

}  // namespace
}  // namespace diesel::fusefs
