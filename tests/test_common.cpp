// Utility-layer tests: serialization bounds, statistics, RNG/hash
// determinism, precise sleep and the table printer.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace ompc {
namespace {

TEST(Serialize, PodRoundTrip) {
  ArchiveWriter w;
  w.put<int>(-5);
  w.put<double>(1.25);
  w.put<std::uint8_t>(255);
  struct P {
    int a;
    float b;
  } p{3, 4.5f};
  w.put(p);
  ArchiveReader r(w.bytes());
  EXPECT_EQ(r.get<int>(), -5);
  EXPECT_DOUBLE_EQ(r.get<double>(), 1.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 255);
  const P q = r.get<P>();
  EXPECT_EQ(q.a, 3);
  EXPECT_FLOAT_EQ(q.b, 4.5f);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringsBlobsVectors) {
  ArchiveWriter w;
  w.put_string("hello");
  w.put_string("");
  Bytes blob{std::byte{1}, std::byte{2}};
  w.put_blob(blob);
  w.put_vector(std::vector<int>{7, 8, 9});
  ArchiveReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_blob(), blob);
  EXPECT_EQ(r.get_vector<int>(), (std::vector<int>{7, 8, 9}));
}

TEST(Serialize, EmptyVectorAndRawRoundTrip) {
  // Zero-length reads must not hand memcpy a null pointer (UBSan flags it
  // even for a zero count).
  ArchiveWriter w;
  w.put_vector(std::vector<std::uint64_t>{});
  w.put<int>(42);
  ArchiveReader r(w.bytes());
  EXPECT_TRUE(r.get_vector<std::uint64_t>().empty());
  r.get_raw(nullptr, 0);
  EXPECT_EQ(r.get<int>(), 42);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, UnderflowThrows) {
  ArchiveWriter w;
  w.put<int>(1);
  ArchiveReader r(w.bytes());
  r.get<int>();
  EXPECT_THROW(r.get<int>(), CheckError);
}

TEST(Serialize, MalformedLengthPrefixThrows) {
  ArchiveWriter w;
  w.put<std::uint64_t>(1'000'000);  // claims a huge string
  ArchiveReader r(w.bytes());
  EXPECT_THROW(r.get_string(), CheckError);
}

TEST(Serialize, RawBytesWithRemaining) {
  ArchiveWriter w;
  w.put<int>(1);
  const char raw[] = {'x', 'y', 'z'};
  w.put_raw(raw, 3);
  ArchiveReader r(w.bytes());
  r.get<int>();
  EXPECT_EQ(r.remaining(), 3u);
  char out[3];
  r.get_raw(out, 3);
  EXPECT_EQ(out[2], 'z');
}

TEST(Stats, RunningStatsMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, SamplePercentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(0.9), 90.1, 1e-9);
}

TEST(Rng, DeterministicPerSeed) {
  XorShift64 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundsRespected) {
  XorShift64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, ZeroSeedIsRemapped) {
  XorShift64 z(0);
  EXPECT_NE(z.next(), 0u);
}

TEST(Hash, Fnv1aKnownProperties) {
  const char a[] = "abc";
  const char b[] = "abd";
  EXPECT_EQ(fnv1a(a, 3), fnv1a(a, 3));
  EXPECT_NE(fnv1a(a, 3), fnv1a(b, 3));
  EXPECT_NE(fnv1a(a, 3), fnv1a(a, 2));
  // Chaining with a seed differs from unchained.
  EXPECT_NE(fnv1a(a, 3, fnv1a(b, 3)), fnv1a(a, 3));
}

TEST(Time, PreciseSleepIsAccurate) {
  const Stopwatch timer;
  precise_sleep_ns(5'000'000);  // 5 ms
  const double ms = timer.elapsed_ms();
  EXPECT_GE(ms, 4.8);
  EXPECT_LE(ms, 30.0);  // loaded-machine upper bound
}

TEST(Time, ZeroAndNegativeSleepReturnImmediately) {
  const Stopwatch timer;
  precise_sleep_ns(0);
  precise_sleep_ns(-100);
  EXPECT_LE(timer.elapsed_ms(), 5.0);
}

TEST(Table, AlignsColumnsAndFormatsNumbers) {
  Table t({"name", "value"});
  t.add_row({"x", Table::num(1.23456, 2)});
  t.add_row({"longer-name", "short"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, RaggedRowsRender) {
  Table t({"a"});
  t.add_row({"1", "2", "3"});  // wider than header
  t.add_row({});               // empty row
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(Check, MacrosThrowWithContext) {
  try {
    OMPC_CHECK_MSG(1 == 2, "custom context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ompc
