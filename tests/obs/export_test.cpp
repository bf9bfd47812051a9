#include "privim/obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"
#include "testing/temp_dir.h"

namespace privim {
namespace obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(false);
    ClearTrace();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    ClearTrace();
  }
};

TEST_F(ExportTest, CombinedJsonSplicesMetricsIntoTheTraceDocument) {
  SetTracingEnabled(true);
  { TraceSpan span("export_span"); }
  GlobalMetrics().GetCounter("export.test.counter")->Increment(5);
  const std::string json = CombinedJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("export_span"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"export.test.counter\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // One top-level object: brace depth returns to zero exactly at the end.
  int depth = 0;
  bool in_string = false;
  char prev = '\0';
  for (char c : json) {
    if (c == '"' && prev != '\\') in_string = !in_string;
    if (!in_string) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    prev = c;
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ExportTest, WriteMetricsFileRoundTrips) {
  const std::string path =
      privim::testing::ProcessTempDir() + "/privim_export_test_metrics.json";
  GlobalMetrics().GetCounter("export.file.counter")->Increment();
  const std::string error = WriteMetricsFile(path);
  EXPECT_TRUE(error.empty()) << error;
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string contents = buffer.str();
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("\"metrics\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ExportTest, WriteMetricsFileReportsUnwritablePaths) {
  const std::string error =
      WriteMetricsFile("/nonexistent_dir_privim/metrics.json");
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("/nonexistent_dir_privim/metrics.json"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace privim
