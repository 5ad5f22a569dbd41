#include "common/bytes.h"

#include <gtest/gtest.h>

namespace diesel {
namespace {

TEST(BinaryRoundTripTest, FixedWidthValues) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);

  BinaryReader r({w.data().data(), w.size()});
  auto u8 = r.ReadRaw(1);  // PutU8 has no reader of its own width
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ((*u8)[0], 0xAB);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryRoundTripTest, StringsAndRaw) {
  BinaryWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutBytes(AsBytesView(std::string("\x00\x01\x02", 3)));

  BinaryReader r({w.data().data(), w.size()});
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), "");
  auto raw = r.ReadBytes();
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 3u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryReaderTest, TruncatedFixedReadIsCorruption) {
  Bytes data = {1, 2, 3};
  BinaryReader r(data);
  auto v = r.ReadU64();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(BinaryReaderTest, TruncatedStringIsCorruption) {
  BinaryWriter w;
  w.PutU32(100);  // claims 100 bytes follow
  w.PutRaw("abc", 3);
  BinaryReader r({w.data().data(), w.size()});
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BinaryWriterTest, PatchU32Overwrites) {
  BinaryWriter w;
  w.PutU32(0);
  w.PutU32(7);
  w.PatchU32(0, 0xCAFEBABE);
  BinaryReader r({w.data().data(), w.size()});
  EXPECT_EQ(r.ReadU32().value(), 0xCAFEBABEu);
  EXPECT_EQ(r.ReadU32().value(), 7u);
}

TEST(BytesViewTest, StringConversions) {
  std::string s = "byte soup";
  BytesView v = AsBytesView(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(ToString(v), s);
}

}  // namespace
}  // namespace diesel
