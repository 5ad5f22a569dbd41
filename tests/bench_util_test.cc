// The experiment harness's output helpers are load-bearing: every figure's
// numbers are printed through the table printer and the count formatter.
// Pin their semantics. The closed-loop driver is pinned in
// tests/sim/driver_test.cc.
#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace diesel::bench {
namespace {

TEST(FmtTest, CountFormatting) {
  EXPECT_EQ(FmtCount(999), "999");
  EXPECT_EQ(FmtCount(1500), "1.5k");
  EXPECT_EQ(FmtCount(2500000), "2.50M");
}

TEST(TableTest, PrintsAlignedWithoutCrashing) {
  Table t({"col a", "b"});
  t.AddRow({"1", "long cell value"});
  t.AddRow({"22"});  // short row tolerated
  t.Print();         // smoke: alignment logic handles ragged rows
}

}  // namespace
}  // namespace diesel::bench
