#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/hashing.hpp"
#include "util/io.hpp"
#include "util/percentile.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace wu = wisdom::util;

// --- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  wu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  wu::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  wu::Rng parent(7);
  wu::Rng f1 = parent.fork("galaxy");
  wu::Rng f2 = parent.fork("github");
  wu::Rng f1_again = parent.fork("galaxy");
  EXPECT_NE(f1.next_u64(), f2.next_u64());
  wu::Rng f1b = parent.fork("galaxy");
  EXPECT_EQ(f1_again.next_u64(), f1b.next_u64());
}

TEST(Rng, UniformRespectsBounds) {
  wu::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double r = rng.uniform_real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Rng, UniformCoversAllValues) {
  wu::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, WeightedFavorsHeavyIndex) {
  wu::Rng rng(5);
  std::vector<double> w = {0.05, 0.9, 0.05};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 2000; ++i) counts[rng.weighted(w)]++;
  EXPECT_GT(counts[1], counts[0]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], 1500);
}

TEST(Rng, ZipfIsHeadHeavy) {
  wu::Rng rng(9);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 5000; ++i) counts[rng.zipf(50)]++;
  EXPECT_GT(counts[0], counts[25] + counts[40]);
}

TEST(Rng, ShuffleIsPermutation) {
  wu::Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, NormalHasApproxZeroMean) {
  wu::Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.normal();
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.05);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = wu::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpties) {
  auto parts = wu::split_ws("  hello   world \t x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "x");
}

TEST(Strings, SplitLinesHandlesCrlfAndNoTrailingNewline) {
  auto lines = wu::split_lines("a\r\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(Strings, SplitLinesEmpty) {
  EXPECT_TRUE(wu::split_lines("").empty());
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(wu::join(parts, ", "), "x, y, z");
}

TEST(Strings, Trim) {
  EXPECT_EQ(wu::trim("  ab \t"), "ab");
  EXPECT_EQ(wu::trim(""), "");
  EXPECT_EQ(wu::trim("   "), "");
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(wu::starts_with("ansible.builtin.apt", "ansible."));
  EXPECT_FALSE(wu::starts_with("a", "ab"));
  EXPECT_TRUE(wu::ends_with("file.yml", ".yml"));
  EXPECT_FALSE(wu::ends_with("a", "ab"));
  EXPECT_TRUE(wu::contains("key: value", ": "));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(wu::replace_all("a''b''c", "''", "'"), "a'b'c");
  EXPECT_EQ(wu::replace_all("aaa", "a", "aa"), "aaaaaa");
}

TEST(Strings, IndentWidth) {
  EXPECT_EQ(wu::indent_width("    x"), 4u);
  EXPECT_EQ(wu::indent_width("x"), 0u);
  EXPECT_EQ(wu::indent_width(""), 0u);
}

TEST(Strings, FmtFixed) {
  EXPECT_EQ(wu::fmt_fixed(66.666, 2), "66.67");
  EXPECT_EQ(wu::fmt_fixed(0.0, 1), "0.0");
}

TEST(Strings, IsInteger) {
  EXPECT_TRUE(wu::is_integer("42"));
  EXPECT_TRUE(wu::is_integer("-7"));
  EXPECT_FALSE(wu::is_integer("4.2"));
  EXPECT_FALSE(wu::is_integer(""));
  EXPECT_FALSE(wu::is_integer("-"));
}

TEST(Strings, ParseNumberTakesOnlyWholeFiniteInRangeValues) {
  int port = 7;
  EXPECT_TRUE(wu::parse_number("8080", 1, 65535, &port));
  EXPECT_EQ(port, 8080);
  for (const char* bad : {"70000", "0", "80x", "abc", "", " 80", "8.5"})
    EXPECT_FALSE(wu::parse_number(bad, 1, 65535, &port)) << bad;
  EXPECT_EQ(port, 8080);  // failures leave the value alone
  double ms = 0.0;
  EXPECT_TRUE(wu::parse_number("2.5", 0.0, 1e9, &ms));
  EXPECT_EQ(ms, 2.5);
  for (const char* bad : {"inf", "nan", "-1", "1e10", "2.5ms"})
    EXPECT_FALSE(wu::parse_number(bad, 0.0, 1e9, &ms)) << bad;
  EXPECT_EQ(ms, 2.5);
}

// --- hashing -----------------------------------------------------------------

TEST(Hashing, Fnv1aKnownValues) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(wu::fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(wu::fnv1a64("a"), wu::fnv1a64("b"));
}

TEST(Hashing, CombineOrderSensitive) {
  auto h1 = wu::hash_combine(wu::fnv1a64("a"), wu::fnv1a64("b"));
  auto h2 = wu::hash_combine(wu::fnv1a64("b"), wu::fnv1a64("a"));
  EXPECT_NE(h1, h2);
}

// --- io ----------------------------------------------------------------------

TEST(Io, BinaryRoundTrip) {
  std::string buf;
  wu::put_u32(buf, 0xDEADBEEF);
  wu::put_u64(buf, 0x0123456789ABCDEFULL);
  wu::put_f32(buf, 3.5f);
  wu::put_string(buf, "checkpoint");
  wu::put_f32_vec(buf, {1.0f, -2.0f, 0.5f});

  wu::ByteReader reader(buf);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEF);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(reader.get_f32(), 3.5f);
  EXPECT_EQ(reader.get_string(), "checkpoint");
  auto vec = reader.get_f32_vec();
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_FLOAT_EQ(vec[1], -2.0f);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.at_end());
}

TEST(Io, ReaderDetectsTruncation) {
  std::string buf;
  wu::put_u64(buf, 100);  // length prefix promising 100 floats
  wu::ByteReader reader(buf);
  auto vec = reader.get_f32_vec();
  EXPECT_TRUE(vec.empty());
  EXPECT_FALSE(reader.ok());
}

TEST(Io, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/wisdom_io_test.bin";
  EXPECT_TRUE(wu::write_file(path, "hello\0world"));
  auto content = wu::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, std::string("hello\0world"));
  EXPECT_FALSE(wu::read_file(path + ".missing").has_value());
}

// --- percentile ------------------------------------------------------------

TEST(Percentile, NearestRank) {
  // 1..100 shuffled: percentile p must be exactly p.
  wu::Rng rng(4);
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  rng.shuffle(values);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile(values, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile(values, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile(values, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile(values, 1.0), 1.0);
}

TEST(Percentile, EdgeCases) {
  EXPECT_EQ(wu::nearest_rank_percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile({42.0}, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile({42.0}, 99.0), 42.0);
  // p is clamped to [0, 100]: below the range reads the smallest sample,
  // above it the largest.
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile({3.0, 1.0, 2.0}, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(wu::nearest_rank_percentile({3.0, 1.0, 2.0}, 250.0), 3.0);
}

// --- table ---------------------------------------------------------------

TEST(Table, RendersHeadersAndAlignment) {
  wu::Table t({"Model", "BLEU"});
  t.add_row({"wisdom-ansible-multi", "66.67"});
  t.add_rule();
  t.add_row({"codex", "50.40"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("66.67"), std::string::npos);
  EXPECT_NE(s.find("codex"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  wu::Table t({"a", "b", "c"});
  t.add_row({"only one"});
  EXPECT_NE(t.to_string().find("only one"), std::string::npos);
}
