#include "support/arg_parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/common.hpp"

namespace aal {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args};
}

TEST(ArgParser, FlagsBothSyntaxes) {
  ArgParser p("test");
  p.add_flag("name", "a name", "default");
  p.add_int_flag("count", "a count", 7);

  auto args = argv_of({"--name", "alpha", "--count=42"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(p.get("name"), "alpha");
  EXPECT_EQ(p.get_int("count"), 42);
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser p("test");
  p.add_flag("name", "a name", "fallback");
  p.add_int_flag("count", "a count", 9);
  p.add_switch("verbose", "chatty");
  p.parse(0, nullptr);
  EXPECT_EQ(p.get("name"), "fallback");
  EXPECT_EQ(p.get_int("count"), 9);
  EXPECT_FALSE(p.get_switch("verbose"));
}

TEST(ArgParser, SwitchesToggle) {
  ArgParser p("test");
  p.add_switch("verbose", "chatty");
  auto args = argv_of({"--verbose"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(p.get_switch("verbose"));
}

TEST(ArgParser, PositionalsInOrder) {
  ArgParser p("test");
  p.add_positional("first", "1st");
  p.add_positional("second", "2nd", /*required=*/false);
  auto args = argv_of({"aaa", "bbb"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(*p.get_positional("first"), "aaa");
  EXPECT_EQ(*p.get_positional("second"), "bbb");
}

TEST(ArgParser, OptionalPositionalMayBeAbsent) {
  ArgParser p("test");
  p.add_positional("first", "1st");
  p.add_positional("second", "2nd", /*required=*/false);
  auto args = argv_of({"only"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_FALSE(p.get_positional("second").has_value());
}

TEST(ArgParser, MixedFlagsAndPositionals) {
  ArgParser p("test");
  p.add_positional("model", "model");
  p.add_flag("gpu", "target", "1080ti");
  auto args = argv_of({"--gpu", "v100", "resnet18"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(*p.get_positional("model"), "resnet18");
  EXPECT_EQ(p.get("gpu"), "v100");
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p("test");
  p.add_positional("required", "needed");
  auto args = argv_of({"--help"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(p.help_requested());  // no missing-positional error
}

TEST(ArgParser, ErrorsOnBadInput) {
  ArgParser p("test");
  p.add_flag("name", "a name", "x");
  p.add_int_flag("count", "a count", 1);
  p.add_switch("flag", "switch");
  p.add_positional("pos", "positional");

  {
    auto args = argv_of({"--unknown", "v", "pos"});
    ArgParser q = p;
    EXPECT_THROW(q.parse(static_cast<int>(args.size()), args.data()),
                 InvalidArgument);
  }
  {
    auto args = argv_of({"pos", "--name"});  // missing value
    ArgParser q = p;
    EXPECT_THROW(q.parse(static_cast<int>(args.size()), args.data()),
                 InvalidArgument);
  }
  {
    auto args = argv_of({"pos", "--count", "NaN"});
    ArgParser q = p;
    EXPECT_THROW(q.parse(static_cast<int>(args.size()), args.data()),
                 InvalidArgument);
  }
  {
    auto args = argv_of({"pos", "--flag=1"});  // switch with value
    ArgParser q = p;
    EXPECT_THROW(q.parse(static_cast<int>(args.size()), args.data()),
                 InvalidArgument);
  }
  {
    auto args = argv_of({"pos", "extra"});
    ArgParser q = p;
    EXPECT_THROW(q.parse(static_cast<int>(args.size()), args.data()),
                 InvalidArgument);
  }
  {
    ArgParser q = p;  // missing required positional
    EXPECT_THROW(q.parse(0, nullptr), InvalidArgument);
  }
}

std::string unknown_flag_message(const char* flag) {
  ArgParser p("test");
  p.add_flag("model", "model name", "alexnet");
  p.add_flag("target", "target name", "gpu-pascal");
  p.add_int_flag("budget", "budget", 1);
  auto args = argv_of({flag, "v"});
  try {
    p.parse(static_cast<int>(args.size()), args.data());
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << flag << " was accepted";
  return "";
}

TEST(ArgParser, UnknownFlagSuggestsTheNearestFlag) {
  EXPECT_EQ(unknown_flag_message("--modle"),
            "unknown flag --modle (did you mean --model?); see --help");
  EXPECT_EQ(unknown_flag_message("--budgte=3"),
            "unknown flag --budgte (did you mean --budget?); see --help");
}

TEST(ArgParser, UnknownFlagWithoutANearFlagOnlyPointsAtHelp) {
  EXPECT_EQ(unknown_flag_message("--zzzzzzzzzz"),
            "unknown flag --zzzzzzzzzz; see --help");
}

TEST(ArgParser, UsageMentionsEverything) {
  ArgParser p("My tool.");
  p.add_positional("model", "the model");
  p.add_flag("gpu", "target GPU", "1080ti");
  p.add_switch("quiet", "hush");
  const std::string u = p.usage("tool");
  EXPECT_NE(u.find("My tool."), std::string::npos);
  EXPECT_NE(u.find("<model>"), std::string::npos);
  EXPECT_NE(u.find("--gpu"), std::string::npos);
  EXPECT_NE(u.find("--quiet"), std::string::npos);
  EXPECT_NE(u.find("1080ti"), std::string::npos);
}

TEST(ArgParser, DuplicateRegistrationRejected) {
  ArgParser p("test");
  p.add_flag("x", "x", "1");
  EXPECT_THROW(p.add_flag("x", "again", "2"), InvalidArgument);
  EXPECT_THROW(p.add_switch("x", "again"), InvalidArgument);
}

}  // namespace
}  // namespace aal
