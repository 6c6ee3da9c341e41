#include "support/string_util.hpp"

#include <gtest/gtest.h>

namespace aal {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtil, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "/"), "x/y/z");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(join({"solo"}, "/"), "solo");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 4), "1.0000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(StringUtil, FormatPercentSigned) {
  EXPECT_EQ(format_percent(-0.1384), "-13.84%");
  EXPECT_EQ(format_percent(0.2923), "+29.23%");
  EXPECT_EQ(format_percent(0.0), "+0.00%");
}

TEST(StringUtil, FormatCount) {
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1500), "1.5K");
  EXPECT_EQ(format_count(209715200), "209.7M");
  EXPECT_EQ(format_count(2000000000), "2.0B");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("conv2d/n1", "conv2d"));
  EXPECT_FALSE(starts_with("conv", "conv2d"));
  EXPECT_TRUE(ends_with("file.txt", ".txt"));
  EXPECT_FALSE(ends_with("txt", "file.txt"));
}

TEST(StringUtil, ClosestMatchHonoursTheEditBound) {
  const std::vector<std::string> names = {"model", "target", "budget"};
  EXPECT_EQ(closest_match("modle", names), "model");
  EXPECT_EQ(closest_match("targte", names), "target");
  EXPECT_EQ(closest_match("zzzzzzzz", names), std::nullopt);
  EXPECT_EQ(closest_match("x", {}), std::nullopt);
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable t;
  t.set_header({"Model", "Latency"});
  t.add_row({"AlexNet", "1.36"});
  t.add_row({"VGG-16", "6.52"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Model"), std::string::npos);
  EXPECT_NE(s.find("| AlexNet"), std::string::npos);
  EXPECT_NE(s.find("| VGG-16"), std::string::npos);
  // Every rendered line has the same width.
  const auto lines = split(s, '\n');
  std::size_t width = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, HandlesShortRowsAndSeparators) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"1", "2", "3"});
  const std::string s = t.to_string();
  EXPECT_FALSE(s.empty());
}

}  // namespace
}  // namespace aal
