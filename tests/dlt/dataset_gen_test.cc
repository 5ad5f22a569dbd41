#include "dlt/dataset_gen.h"

#include <gtest/gtest.h>

#include <set>

namespace diesel::dlt {
namespace {

TEST(DatasetSpecTest, PresetsAreShapedRight) {
  DatasetSpec in = ImageNetLike(10000);
  EXPECT_EQ(in.total_files(), 10000u);
  EXPECT_EQ(in.num_classes, 100u);
  EXPECT_FALSE(in.fixed_size);

  DatasetSpec cf = CifarLike(1000);
  EXPECT_EQ(cf.num_classes, 10u);
  EXPECT_TRUE(cf.fixed_size);

  DatasetSpec oi = OpenImagesLike(60000);
  EXPECT_EQ(oi.num_classes, 600u);
  EXPECT_EQ(oi.total_files(), 60000u);
  EXPECT_EQ(oi.mean_file_bytes, 60u * 1024);
  EXPECT_FALSE(oi.fixed_size);
  // Tiny scale never rounds to zero files per class.
  EXPECT_GE(OpenImagesLike(10).files_per_class, 1u);
}

TEST(MakeFileTest, DeterministicAndVerifiable) {
  DatasetSpec spec;
  spec.files_per_class = 10;
  GeneratedFile a = MakeFile(spec, 7);
  GeneratedFile b = MakeFile(spec, 7);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.content, b.content);
  EXPECT_TRUE(VerifyContent(spec, 7, a.content));
  EXPECT_FALSE(VerifyContent(spec, 8, a.content));
  Bytes mutated = a.content;
  mutated[0] ^= 1;
  EXPECT_FALSE(VerifyContent(spec, 7, mutated));
}

TEST(MakeFileTest, PathsAreUniqueAndClassStructured) {
  DatasetSpec spec;
  spec.num_classes = 4;
  spec.files_per_class = 25;
  std::set<std::string> paths;
  for (size_t i = 0; i < spec.total_files(); ++i) {
    std::string p = FilePath(spec, i);
    EXPECT_TRUE(paths.insert(p).second) << p;
    EXPECT_NE(p.find("/synth/train/cls"), std::string::npos);
  }
}

TEST(MakeFileTest, SizeJitterWithinBounds) {
  DatasetSpec spec;
  spec.mean_file_bytes = 10000;
  spec.files_per_class = 100;
  bool varied = false;
  size_t first = MakeFile(spec, 0).content.size();
  for (size_t i = 0; i < 50; ++i) {
    size_t n = MakeFile(spec, i).content.size();
    EXPECT_GE(n, 7500u);
    EXPECT_LE(n, 12500u);
    if (n != first) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(MakeFileTest, FixedSizeHasNoJitter) {
  DatasetSpec spec = CifarLike(100);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(MakeFile(spec, i).content.size(), spec.mean_file_bytes);
  }
}

TEST(ForEachFileTest, VisitsAllAndStopsOnError) {
  DatasetSpec spec;
  spec.num_classes = 2;
  spec.files_per_class = 5;
  size_t count = 0;
  ASSERT_TRUE(ForEachFile(spec, [&](const GeneratedFile&) {
                ++count;
                return Status::Ok();
              }).ok());
  EXPECT_EQ(count, 10u);

  count = 0;
  Status st = ForEachFile(spec, [&](const GeneratedFile&) {
    return ++count == 3 ? Status::IoError("stop") : Status::Ok();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(count, 3u);
}

TEST(SampleTest, EncodeDecodeRoundTrip) {
  std::vector<float> x{1.5f, -2.25f, 0.0f};
  Bytes data = EncodeSample(3, x);
  uint32_t label;
  std::vector<float> back;
  ASSERT_TRUE(DecodeSample(data, label, back).ok());
  EXPECT_EQ(label, 3u);
  EXPECT_EQ(back, x);
  EXPECT_FALSE(DecodeSample({data.data(), 5}, label, back).ok());
}

TEST(SampleTest, DecodeRejectsFeatureCountPastTheData) {
  // label 1, dims 0xFFFFFFFF, no features: the count must be checked
  // against the bytes left before anything is sized by it.
  const Bytes data{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  uint32_t label;
  std::vector<float> back;
  EXPECT_TRUE(DecodeSample(data, label, back).IsCorruption());
  EXPECT_TRUE(back.empty());
  // One feature short of the claimed count.
  Bytes short_by_one = EncodeSample(2, {1.0f, 2.0f});
  short_by_one.resize(short_by_one.size() - 4);
  EXPECT_TRUE(DecodeSample(short_by_one, label, back).IsCorruption());
}

TEST(SampleTest, MakeSampleDeterministicWithCorrectLabel) {
  SampleSpec spec;
  for (size_t i = 0; i < 30; ++i) {
    Bytes a = MakeSample(spec, i);
    Bytes b = MakeSample(spec, i);
    EXPECT_EQ(a, b);
    uint32_t label;
    std::vector<float> x;
    ASSERT_TRUE(DecodeSample(a, label, x).ok());
    EXPECT_EQ(label, SampleLabel(spec, i));
    EXPECT_EQ(x.size(), spec.dims);
  }
}

TEST(SampleTest, ClassesAreSeparated) {
  // Mean pairwise distance between different-class samples should exceed
  // same-class distance (the mixture is learnable).
  SampleSpec spec;
  spec.separation = 4.0;
  auto decode = [&](size_t i) {
    uint32_t label;
    std::vector<float> x;
    EXPECT_TRUE(DecodeSample(MakeSample(spec, i), label, x).ok());
    return x;
  };
  auto dist = [](const std::vector<float>& a, const std::vector<float>& b) {
    double d = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      d += (a[i] - b[i]) * (a[i] - b[i]);
    }
    return d;
  };
  // Samples i and i+10k share class (10 classes); i and i+1 differ.
  double same = 0, diff = 0;
  int n = 0;
  for (size_t i = 0; i < 50; ++i, ++n) {
    same += dist(decode(i), decode(i + 100));   // same class (100 % 10 == 0)
    diff += dist(decode(i), decode(i + 101));   // different class
  }
  EXPECT_LT(same / n, diff / n);
}

}  // namespace
}  // namespace diesel::dlt
