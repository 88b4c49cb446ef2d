#include <gtest/gtest.h>

#include <fstream>
#include <unordered_set>

#include "livesim/stats/csv.h"
#include "livesim/util/fingerprint.h"
#include "livesim/util/ids.h"
#include "livesim/util/time.h"

namespace livesim {
namespace {

TEST(Time, ConversionRoundTrips) {
  EXPECT_EQ(time::from_seconds(1.5), 1'500'000);
  EXPECT_EQ(time::from_millis(2.5), 2'500);
  EXPECT_DOUBLE_EQ(time::to_seconds(3 * time::kSecond), 3.0);
  EXPECT_DOUBLE_EQ(time::to_millis(time::kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(time::to_seconds(time::from_seconds(12.345)), 12.345);
}

TEST(Time, UnitRelations) {
  EXPECT_EQ(time::kSecond, 1000 * time::kMillisecond);
  EXPECT_EQ(time::kMinute, 60 * time::kSecond);
  EXPECT_EQ(time::kHour, 60 * time::kMinute);
  EXPECT_EQ(time::kDay, 24 * time::kHour);
}

TEST(Time, DayIndex) {
  EXPECT_EQ(time::day_index(0), 0);
  EXPECT_EQ(time::day_index(time::kDay - 1), 0);
  EXPECT_EQ(time::day_index(time::kDay), 1);
  EXPECT_EQ(time::day_index(10 * time::kDay + 5), 10);
}

TEST(Fingerprint, IsWordWiseFnv1a) {
  // The offset basis and prime every pinned hash was captured with:
  // h = (h ^ word) * prime per 64-bit word, doubles by bit pattern.
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  EXPECT_EQ(util::Fingerprint().value(), kBasis);
  const std::uint64_t one = (kBasis ^ 7u) * kPrime;
  const std::uint64_t two = (one ^ 0x3ff0000000000000ULL) * kPrime;
  EXPECT_EQ(util::Fingerprint().mix(7).value(), one);
  EXPECT_EQ(util::Fingerprint().mix(7).mix_double(1.0).value(), two);
  const double xs[] = {1.0, 2.5};
  EXPECT_EQ(util::Fingerprint().mix_doubles(xs).value(),
            util::Fingerprint().mix_double(1.0).mix_double(2.5).value());
  // Order-sensitive.
  EXPECT_NE(util::Fingerprint().mix(1).mix(2).value(),
            util::Fingerprint().mix(2).mix(1).value());
}

TEST(Ids, DefaultIsInvalid) {
  BroadcastId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(BroadcastId{7}.valid());
}

TEST(Ids, ComparisonAndOrdering) {
  EXPECT_EQ(UserId{3}, UserId{3});
  EXPECT_NE(UserId{3}, UserId{4});
  EXPECT_LT(UserId{3}, UserId{4});
}

TEST(Ids, TypesAreDistinct) {
  // Compile-time property: BroadcastId and UserId do not interconvert.
  static_assert(!std::is_convertible_v<BroadcastId, UserId>);
  static_assert(!std::is_convertible_v<std::uint64_t, BroadcastId>);
}

TEST(Ids, Hashable) {
  std::unordered_set<DatacenterId> set;
  set.insert(DatacenterId{1});
  set.insert(DatacenterId{2});
  set.insert(DatacenterId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Csv, RendersHeaderAndRows) {
  stats::CsvWriter w({"x", "rtmp", "hls"});
  w.add_row({0.0, 0.1, 0.2});
  w.add_row({1.0, 0.5, 0.25});
  const std::string text = w.render();
  EXPECT_EQ(text, "x,rtmp,hls\n0,0.1,0.2\n1,0.5,0.25\n");
}

TEST(Csv, RejectsBadShape) {
  EXPECT_THROW(stats::CsvWriter({}), std::invalid_argument);
  stats::CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({1.0}), std::invalid_argument);
}

TEST(Csv, WriteDisabledWithoutDir) {
  stats::CsvWriter w({"a"});
  w.add_row({1.0});
  EXPECT_FALSE(w.write("", "test").has_value());
}

TEST(Csv, WritesToDirectory) {
  stats::CsvWriter w({"a", "b"});
  w.add_row({1.5, 2.5});
  const auto path = w.write("/tmp", "livesim_csv_test");
  ASSERT_TRUE(path.has_value());
  std::ifstream in(*path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
}

}  // namespace
}  // namespace livesim
