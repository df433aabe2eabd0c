// The shared bench flags: each known flag parses, and anything else is an
// error, so a misspelt flag cannot silently run a bench in its default mode.

#include "src/hmetrics/bench_main.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace hmetrics {
namespace {

// Parses `args` as argv[1..]; returns whether they were accepted.
bool Parse(std::initializer_list<const char*> args, BenchOptions* opts,
           std::string* error = nullptr) {
  std::vector<std::string> storage{"bench"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  std::string ignored;
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data(), opts,
                         error != nullptr ? error : &ignored);
}

TEST(BenchFlags, NoArgumentsGiveDefaults) {
  BenchOptions opts;
  ASSERT_TRUE(Parse({}, &opts));
  EXPECT_FALSE(opts.json);
  EXPECT_FALSE(opts.smoke);
  EXPECT_FALSE(opts.profile);
  EXPECT_FALSE(opts.why);
  EXPECT_FALSE(opts.faults);
  EXPECT_TRUE(opts.trace_path.empty());
}

TEST(BenchFlags, EachKnownFlagParses) {
  BenchOptions opts;
  ASSERT_TRUE(Parse({"--json", "--smoke", "--trace=t.json", "--profile", "--why",
                     "--faults"},
                    &opts));
  EXPECT_TRUE(opts.json);
  EXPECT_TRUE(opts.json_path.empty());
  EXPECT_TRUE(opts.smoke);
  EXPECT_EQ(opts.trace_path, "t.json");
  EXPECT_TRUE(opts.profile);
  EXPECT_TRUE(opts.profile_path.empty());
  EXPECT_TRUE(opts.why);
  EXPECT_TRUE(opts.why_path.empty());
  EXPECT_TRUE(opts.faults);
}

TEST(BenchFlags, PathFormsCarryTheirPath) {
  BenchOptions opts;
  ASSERT_TRUE(Parse({"--json=r.json", "--profile=p.json", "--why=w.json"}, &opts));
  EXPECT_TRUE(opts.json);
  EXPECT_EQ(opts.json_path, "r.json");
  EXPECT_TRUE(opts.profile);
  EXPECT_EQ(opts.profile_path, "p.json");
  EXPECT_TRUE(opts.why);
  EXPECT_EQ(opts.why_path, "w.json");
}

TEST(BenchFlags, UnknownFlagFails) {
  for (const char* bad : {"--smok", "--trace", "--benchmark_filter=x", "smoke", "-h"}) {
    BenchOptions opts;
    std::string error;
    EXPECT_FALSE(Parse({"--smoke", bad}, &opts, &error)) << bad;
    EXPECT_NE(error.find(bad), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace hmetrics
