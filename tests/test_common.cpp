// Unit tests for src/common: checked math, RNG determinism, tables,
// the shared JSON writer primitives and the ordered emitter.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/ordered_emitter.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"

namespace fmm {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    FMM_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FMM_CHECK(2 + 2 == 4));
}

TEST(MathUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 62));
  EXPECT_FALSE(is_pow2((1ull << 62) + 1));
}

TEST(MathUtil, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
}

TEST(MathUtil, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(1025), 11);
}

TEST(MathUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(MathUtil, IpowChecked) {
  EXPECT_EQ(ipow_checked(2, 10), 1024);
  EXPECT_EQ(ipow_checked(7, 0), 1);
  EXPECT_EQ(ipow_checked(-3, 3), -27);
  EXPECT_THROW(ipow_checked(10, 40), CheckError);
}

TEST(MathUtil, MulAddOverflow) {
  EXPECT_EQ(imul_checked(1 << 20, 1 << 20), 1ll << 40);
  EXPECT_THROW(imul_checked(INT64_MAX, 2), CheckError);
  EXPECT_THROW(iadd_checked(INT64_MAX, 1), CheckError);
}

TEST(MathUtil, CheckedMulAddPow) {
  EXPECT_EQ(checked_mul(1ll << 31, 1ll << 31), 1ll << 62);
  EXPECT_EQ(checked_mul(-3, 7), -21);
  EXPECT_THROW(checked_mul(1ll << 32, 1ll << 32), CheckError);
  EXPECT_THROW(checked_mul(INT64_MIN, -1), CheckError);

  EXPECT_EQ(checked_add(INT64_MAX - 1, 1), INT64_MAX);
  EXPECT_THROW(checked_add(INT64_MAX, 1), CheckError);
  EXPECT_THROW(checked_add(INT64_MIN, -1), CheckError);

  EXPECT_EQ(checked_pow(7, 6), 117649);
  EXPECT_EQ(checked_pow(2, 62), 1ll << 62);
  EXPECT_EQ(checked_pow(123, 0), 1);
  EXPECT_THROW(checked_pow(2, 63), CheckError);
  EXPECT_THROW(checked_pow(7, 30), CheckError);
}

TEST(MathUtil, Pow7) {
  EXPECT_EQ(pow7(0), 1);
  EXPECT_EQ(pow7(3), 343);
  EXPECT_EQ(pow7(6), 117649);
  EXPECT_THROW(pow7(23), CheckError);
}

TEST(MathUtil, Omega0Value) {
  EXPECT_NEAR(kOmega0, std::log2(7.0), 1e-12);
}

TEST(MathUtil, Gcd) {
  EXPECT_EQ(gcd_i64(12, 18), 6);
  EXPECT_EQ(gcd_i64(-12, 18), 6);
  EXPECT_EQ(gcd_i64(0, 7), 7);
  EXPECT_EQ(gcd_i64(0, 0), 0);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b());
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.uniform(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const std::size_t s : sample) {
    EXPECT_LT(s, 20u);
  }
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

TEST(Rng, SampleFullSet) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(5, 5);
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(19);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

TEST(Rng, Shuffle) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), w.begin()));
}

TEST(Table, ConsoleRendering) {
  Table t({"a", "bb"});
  t.begin_row();
  t.add_cell("x");
  t.add_cell(std::int64_t{42});
  std::ostringstream oss;
  t.print_console(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("--"), std::string::npos);
}

TEST(Table, MarkdownRendering) {
  Table t({"col"});
  t.begin_row();
  t.add_cell(3.14159);
  std::ostringstream oss;
  t.print_markdown(oss);
  EXPECT_NE(oss.str().find("| col |"), std::string::npos);
  EXPECT_NE(oss.str().find("3.142"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"c"});
  t.begin_row();
  t.add_cell(std::string("a,b\"c"));
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_NE(oss.str().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, IncompleteRowThrows) {
  Table t({"a", "b"});
  t.begin_row();
  t.add_cell("only-one");
  std::ostringstream oss;
  EXPECT_THROW(t.print_console(oss), CheckError);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a"});
  t.begin_row();
  t.add_cell("1");
  EXPECT_THROW(t.add_cell("2"), CheckError);
}

TEST(Table, AddRowAtOnce) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_THROW(t.add_row({"only"}), CheckError);
}

TEST(FormatHelpers, Doubles) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(1234567.0), "1.235e+06");
  EXPECT_EQ(format_ratio(1.5), "1.50x");
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  (void)sink;
  EXPECT_GE(sw.nanoseconds(), 0);
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(Json, WriteJsonRoundTripsBytes) {
  // Ids beyond 2^53, long fractions and escaped control characters must
  // come back exactly as they went in (`fmmio tail` re-emits records).
  const std::string text =
      "{\"id\": 9007199254740993, \"x\": 0.123456789, \"s\": \"a\\tb\"}";
  std::ostringstream os;
  write_json(os, parse_json(text));
  EXPECT_EQ(os.str(), text);
}

TEST(Json, WriteJsonEchoesFullRangeIntegersAndNesting) {
  const std::string text =
      "{\"max\": 9223372036854775807, \"umax\": 18446744073709551615, "
      "\"neg\": -9223372036854775808, \"e\": 1.5e-300, "
      "\"k\\\"ey\": [true, false, null, [], {}], \"ctl\": \"\\u0001\\n\"}";
  std::ostringstream os;
  write_json(os, parse_json(text));
  EXPECT_EQ(os.str(), text);
}

TEST(Json, EscapeAndDoubles) {
  std::ostringstream os;
  json_escape(os, "q\"b\\n\nt\tr\r\x01");
  EXPECT_EQ(os.str(), "q\\\"b\\\\n\\nt\\tr\\u000d\\u0001");
  std::ostringstream d;
  write_double(d, 0.1);
  d << ' ';
  write_double(d, 1.0 / 3.0);
  d << ' ';
  write_double(d, std::numeric_limits<double>::infinity());
  d << ' ';
  write_double(d, std::nan(""));
  EXPECT_EQ(d.str(), "0.1 0.333333333333 null null");
}

TEST(OrderedEmitter, WritesInSeqOrderAndSinksAfterWrite) {
  std::ostringstream out;
  std::vector<int> sunk;
  std::vector<std::size_t> bytes_seen;
  {
    OrderedEmitter<int> emit(
        out, [&](int& meta, const std::string& line, std::int64_t write_ns) {
          EXPECT_GE(write_ns, 0);
          // The line is already on the stream when the sink runs.
          EXPECT_NE(out.str().find(line + "\n"), std::string::npos);
          sunk.push_back(meta);
          bytes_seen.push_back(line.size());
        });
    std::vector<std::thread> producers;
    for (int seq : {3, 1, 4, 0, 2}) {
      producers.emplace_back([&emit, seq] {
        emit.push(static_cast<std::size_t>(seq),
                  "line" + std::string(static_cast<std::size_t>(seq), '+'),
                  seq * 10);
      });
    }
    for (auto& t : producers) {
      t.join();
    }
    emit.finish(5);
  }
  EXPECT_EQ(out.str(), "line\nline+\nline++\nline+++\nline++++\n");
  EXPECT_EQ(sunk, (std::vector<int>{0, 10, 20, 30, 40}));
  EXPECT_EQ(bytes_seen, (std::vector<std::size_t>{4, 5, 6, 7, 8}));
}

TEST(OrderedEmitter, DestructorWithoutFinishDrainsContiguousPrefix) {
  std::ostringstream out;
  {
    OrderedEmitter<> emit(out);
    emit.push(0, "a");
    emit.push(2, "c");
  }
  EXPECT_EQ(out.str(), "a\n");
}

}  // namespace
}  // namespace fmm
