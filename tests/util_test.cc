#include <gtest/gtest.h>

#include <limits>

#include "util/arena.h"
#include "util/coding.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing widget");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  KIMDB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseAssignOrReturn(-1, &out).IsInvalidArgument());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed8(&buf, 0xAB);
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Decoder dec(buf);
  EXPECT_EQ(*dec.ReadFixed8(), 0xAB);
  EXPECT_EQ(*dec.ReadFixed16(), 0xBEEF);
  EXPECT_EQ(*dec.ReadFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.ReadFixed64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    Decoder dec(buf);
    Result<uint64_t> got = dec.ReadVarint64();
    ASSERT_TRUE(got.ok()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(dec.empty());
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, (1ull << 32) + 5);
  Decoder dec(buf);
  EXPECT_TRUE(dec.ReadVarint32().status().IsCorruption());
}

TEST(CodingTest, TruncatedInputsAreCorruption) {
  std::string buf;
  PutFixed64(&buf, 12345);
  Decoder dec(buf.substr(0, 5));
  EXPECT_TRUE(dec.ReadFixed64().status().IsCorruption());

  Decoder empty("");
  EXPECT_TRUE(empty.ReadVarint64().status().IsCorruption());
  EXPECT_TRUE(empty.ReadFixed8().status().IsCorruption());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder dec(buf);
  EXPECT_EQ(*dec.ReadLengthPrefixed(), "hello");
  EXPECT_EQ(*dec.ReadLengthPrefixed(), "");
  EXPECT_EQ(dec.ReadLengthPrefixed()->size(), 1000u);
  EXPECT_TRUE(dec.empty());
}

TEST(CodingTest, LengthPrefixedTruncated) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello world");
  std::string truncated = buf.substr(0, 4);  // the Decoder keeps a view
  Decoder dec(truncated);
  EXPECT_TRUE(dec.ReadLengthPrefixed().status().IsCorruption());
}

TEST(CodingTest, DoubleRoundTrip) {
  for (double v : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    std::string buf;
    PutDouble(&buf, v);
    Decoder dec(buf);
    EXPECT_EQ(*dec.ReadDouble(), v);
  }
}

TEST(CodingTest, ZigZagRoundTrip) {
  const int64_t cases[] = {0, 1, -1, 63, -64,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes encode small.
  EXPECT_LT(ZigZagEncode(-1), 1000u);
}

class VarintPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintPropertyTest, RandomRoundTrips) {
  Random rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Next() >> (rng.Uniform(64));
    std::string buf;
    PutVarint64(&buf, v);
    Decoder dec(buf);
    ASSERT_EQ(*dec.ReadVarint64(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfianSkewsTowardLowItems) {
  ZipfianGenerator zipf(1000, 0.99, 11);
  int low = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    if (v < 100) ++low;
  }
  // With theta=0.99 the first decile draws far more than 10% of mass.
  EXPECT_GT(low, kDraws / 4);
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(128);
  char* a = arena.Allocate(10);
  char* b = arena.Allocate(10);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  // Oversized allocation gets its own block.
  char* big = arena.Allocate(4096);
  ASSERT_NE(big, nullptr);
  big[4095] = 'x';
  EXPECT_GT(arena.bytes_allocated(), 4096u);
}

TEST(HashTest, StableAndSpreads) {
  EXPECT_EQ(Hash64("abc"), Hash64("abc"));
  EXPECT_NE(Hash64("abc"), Hash64("abd"));
  EXPECT_NE(Hash64("abc"), Hash64("abc", /*seed=*/1));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace kimdb
