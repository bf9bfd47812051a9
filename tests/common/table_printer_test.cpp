#include "privim/common/table_printer.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

TEST(TablePrinterTest, AsciiTableContainsCellsAligned) {
  TablePrinter table({"Dataset", "Spread"});
  table.AddRow({"Email", "123.40"});
  table.AddRow({"Gowalla", "9876.00"});
  const std::string out = table.ToAsciiTable();
  EXPECT_NE(out.find("Dataset"), std::string::npos);
  EXPECT_NE(out.find("Email"), std::string::npos);
  EXPECT_NE(out.find("9876.00"), std::string::npos);
  // Every rendered line has the same width.
  std::istringstream lines(out);
  std::string line;
  size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_NE(table.ToAsciiTable().find("only"), std::string::npos);
}

TEST(TablePrinterTest, CsvBasic) {
  TablePrinter table({"x", "y"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "x,y\n1,2\n");
}

TEST(TablePrinterTest, CsvEscapesSpecialCharacters) {
  TablePrinter table({"name"});
  table.AddRow({"a,b"});
  table.AddRow({"say \"hi\""});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, WriteCsvRoundTrip) {
  TablePrinter table({"k", "v"});
  table.AddRow({"eps", "4"});
  const std::string path =
      privim::testing::ProcessTempDir() + "/privim_table_test.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream file(path);
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_EQ(content.str(), "k,v\neps,4\n");
  std::remove(path.c_str());
}

TEST(TablePrinterTest, WriteCsvBadPathFails) {
  TablePrinter table({"k"});
  EXPECT_FALSE(table.WriteCsv("/nonexistent_dir_xyz/out.csv").ok());
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 0), "2");
}

TEST(TablePrinterTest, FormatMeanStd) {
  EXPECT_EQ(TablePrinter::FormatMeanStd(94.44, 1.32, 2), "94.44 ± 1.32");
}

}  // namespace
}  // namespace privim
