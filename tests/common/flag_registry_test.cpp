#include "privim/common/flag_registry.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace privim {
namespace {

/// Builds argv from string literals (argv[0] is the program name, which
/// Parse skips just like main's).
class ArgvFixture {
 public:
  explicit ArgvFixture(std::vector<std::string> args)
      : storage_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("test-binary"));
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

FlagRegistry TestRegistry() {
  FlagRegistry registry;
  registry.AddInt("subgraph-size", 25, "RWR subgraph size n")
      .AddDouble("learning-rate", 0.1, "SGD step size")
      .AddBool("undirected", false, "symmetrize edges")
      .AddString("model", "out.model", "output path");
  return registry;
}

TEST(FlagRegistryTest, RoundTripsEveryTypeAndSyntax) {
  ArgvFixture args({"--subgraph-size", "40", "--learning-rate=0.5",
                    "--undirected", "--model", "m.bin"});
  const ParsedFlags parsed =
      TestRegistry().Parse(args.argc(), args.argv()).value();
  EXPECT_FALSE(parsed.help_requested);
  EXPECT_EQ(parsed.flags.GetInt("subgraph-size", 0), 40);
  EXPECT_EQ(parsed.flags.GetDouble("learning-rate", 0.0), 0.5);
  EXPECT_TRUE(parsed.flags.GetBool("undirected", false));
  EXPECT_EQ(parsed.flags.GetString("model", ""), "m.bin");
}

TEST(FlagRegistryTest, AbsentFlagsFallBackToCallSiteDefaults) {
  ArgvFixture args({});
  const ParsedFlags parsed =
      TestRegistry().Parse(args.argc(), args.argv()).value();
  EXPECT_EQ(parsed.flags.GetInt("subgraph-size", 25), 25);
  EXPECT_FALSE(parsed.flags.Has("model"));
}

TEST(FlagRegistryTest, UnknownFlagIsRejectedWithHelpHint) {
  ArgvFixture args({"--frobnicate", "1"});
  const Status status =
      TestRegistry().Parse(args.argc(), args.argv()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--frobnicate"), std::string::npos);
  EXPECT_NE(status.message().find("--help"), std::string::npos);
}

TEST(FlagRegistryTest, TypeMismatchesAreRejectedAtParseTime) {
  {
    ArgvFixture args({"--subgraph-size", "forty"});
    EXPECT_FALSE(TestRegistry().Parse(args.argc(), args.argv()).ok());
  }
  {
    ArgvFixture args({"--learning-rate", "fast"});
    EXPECT_FALSE(TestRegistry().Parse(args.argc(), args.argv()).ok());
  }
  {
    ArgvFixture args({"--undirected=maybe"});
    EXPECT_FALSE(TestRegistry().Parse(args.argc(), args.argv()).ok());
  }
  {
    // Trailing garbage after a valid number is not a number.
    ArgvFixture args({"--subgraph-size", "40x"});
    EXPECT_FALSE(TestRegistry().Parse(args.argc(), args.argv()).ok());
  }
}

TEST(FlagRegistryTest, NonBoolFlagRequiresValue) {
  ArgvFixture args({"--model"});
  const Status status =
      TestRegistry().Parse(args.argc(), args.argv()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("requires a value"), std::string::npos);
}

TEST(FlagRegistryTest, PositionalArgumentsAreRejected) {
  ArgvFixture args({"subcommandish"});
  EXPECT_FALSE(TestRegistry().Parse(args.argc(), args.argv()).ok());
}

TEST(FlagRegistryTest, NegativeNumbersParseAsValues) {
  FlagRegistry registry;
  registry.AddInt("steps", 1, "diffusion steps; -1 = quiescence");
  ArgvFixture args({"--steps", "-1"});
  const ParsedFlags parsed = registry.Parse(args.argc(), args.argv()).value();
  EXPECT_EQ(parsed.flags.GetInt("steps", 0), -1);
}

TEST(FlagRegistryTest, HelpRequestShortCircuits) {
  ArgvFixture args({"--help"});
  const ParsedFlags parsed =
      TestRegistry().Parse(args.argc(), args.argv()).value();
  EXPECT_TRUE(parsed.help_requested);
}

TEST(FlagRegistryTest, HelpTextListsEveryFlagDefaultAndAlias) {
  const std::string help = TestRegistry().HelpText("usage: test");
  EXPECT_NE(help.find("usage: test"), std::string::npos);
  EXPECT_NE(help.find("--subgraph-size"), std::string::npos);
  EXPECT_NE(help.find("default 25"), std::string::npos);
  EXPECT_NE(help.find("--model"), std::string::npos);
  EXPECT_NE(help.find("[string"), std::string::npos);
}

TEST(FlagRegistryTest, IncludeComposesRegistries) {
  FlagRegistry common;
  common.AddInt("threads", 0, "pool size");
  FlagRegistry registry;
  registry.AddInt("k", 50, "seed-set size");
  registry.Include(common);
  ArgvFixture args({"--k", "3", "--threads", "2"});
  const ParsedFlags parsed = registry.Parse(args.argc(), args.argv()).value();
  EXPECT_EQ(parsed.flags.GetInt("k", 0), 3);
  EXPECT_EQ(parsed.flags.GetInt("threads", 0), 2);
}

}  // namespace
}  // namespace privim
