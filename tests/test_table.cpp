#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <sstream>

namespace sld::util {
namespace {

TEST(Table, CsvOutputShape) {
  Table t({"x", "name", "value"});
  t.row().cell(1).cell("alpha").cell(0.5);
  t.row().cell(2).cell("beta").cell(1.25);
  std::ostringstream os;
  t.print_csv(os, "demo");
  EXPECT_EQ(os.str(),
            "# demo\n"
            "x,name,value\n"
            "1,alpha,0.5\n"
            "2,beta,1.25\n");
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.row().cell(1);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, ScientificForExtremeDoubles) {
  Table t({"v"});
  t.row().cell(1e-9);
  std::ostringstream os;
  t.print_csv(os, "sci");
  EXPECT_NE(os.str().find("e-09"), std::string::npos);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Table, RejectsCellBeforeRow) {
  Table t({"a"});
  EXPECT_THROW(t.cell(1), std::logic_error);
}

TEST(Table, RejectsMisshapenRowAtPrint) {
  Table t({"a", "b"});
  t.row().cell(1);  // missing second cell
  std::ostringstream os;
  EXPECT_THROW(t.print_csv(os, "bad"), std::logic_error);
}

TEST(Table, Rfc4180QuotesSpecialCells) {
  Table t({"label", "note, with comma"});
  t.row().cell("plain").cell("says \"hi\"");
  t.row().cell("multi\nline").cell("trailing\r");
  std::ostringstream os;
  t.print_csv(os, "quoting");
  EXPECT_EQ(os.str(),
            "# quoting\n"
            "label,\"note, with comma\"\n"
            "plain,\"says \"\"hi\"\"\"\n"
            "\"multi\nline\",\"trailing\r\"\n");
}

TEST(Table, LargeUnsignedCellsPrintUnsigned) {
  // Checksums use all 64 bits; a count cell used to print 2^63 and up as
  // a negative number.
  Table t({"u", "s"});
  t.row().cell(std::size_t{1} << 63).cell(-5LL);
  t.row().cell(std::numeric_limits<std::size_t>::max()).cell(
      std::numeric_limits<long long>::min());
  std::ostringstream os;
  t.print_csv(os, "wide");
  EXPECT_EQ(os.str(),
            "# wide\n"
            "u,s\n"
            "9223372036854775808,-5\n"
            "18446744073709551615,-9223372036854775808\n");
}

TEST(Table, Rfc4180LeavesPlainCellsUnquoted) {
  Table t({"a", "b"});
  t.row().cell("x y").cell(3);
  std::ostringstream os;
  t.print_csv(os, "plain");
  EXPECT_EQ(os.str(),
            "# plain\n"
            "a,b\n"
            "x y,3\n");
}

}  // namespace
}  // namespace sld::util
