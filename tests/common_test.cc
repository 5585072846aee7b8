#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/nonce_window.h"
#include "common/queueing.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace dssp {
namespace {

// ----- Status / StatusOr -----

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ConstraintViolationError("x").code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(ParseError("boom").ToString(), "parse error: boom");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status::Ok());
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InvalidArgumentError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("missing"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string(1000, 'x'));
  std::string s = std::move(v).value();
  EXPECT_EQ(s.size(), 1000u);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  DSSP_ASSIGN_OR_RETURN(int half, Half(x));
  DSSP_ASSIGN_OR_RETURN(int quarter, Half(half));
  *out = quarter;
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(UseAssignOrReturn(6, &out).code(),
            StatusCode::kInvalidArgument);  // 3 is odd.
}

// ----- SipHash -----

TEST(SipHashTest, ReferenceVector) {
  // Official SipHash-2-4 test vector: key = 000102...0f,
  // input = 00 01 ... 0e (15 bytes), expected output a129ca6149be45e5.
  const uint64_t k0 = 0x0706050403020100ULL;
  const uint64_t k1 = 0x0f0e0d0c0b0a0908ULL;
  std::string data;
  for (int i = 0; i < 15; ++i) data.push_back(static_cast<char>(i));
  EXPECT_EQ(SipHash24(k0, k1, data), 0xa129ca6149be45e5ULL);
}

TEST(SipHashTest, EmptyInputReferenceVector) {
  const uint64_t k0 = 0x0706050403020100ULL;
  const uint64_t k1 = 0x0f0e0d0c0b0a0908ULL;
  EXPECT_EQ(SipHash24(k0, k1, ""), 0x726fdb47dd0e0e31ULL);
}

TEST(SipHashTest, KeySensitivity) {
  EXPECT_NE(SipHash24(1, 2, "hello"), SipHash24(1, 3, "hello"));
  EXPECT_NE(SipHash24(1, 2, "hello"), SipHash24(2, 2, "hello"));
}

TEST(HashTest, CombineIsOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ----- Rng -----

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All seven values hit in 1000 draws.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(7.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 7.0, 0.15);
}

TEST(RngTest, NextBoolEdgeProbabilities) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++trues;
  }
  EXPECT_NEAR(trues / 10000.0, 0.3, 0.03);
}

// ----- Zipf -----

TEST(ZipfTest, SamplesInRange) {
  ZipfDistribution zipf(100, 1.0);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
  }
}

TEST(ZipfTest, RankOneIsMostPopular) {
  ZipfDistribution zipf(1000, 1.0);
  Rng rng(5);
  std::vector<int> counts(1001, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // Zipf(1.0): P(1)/P(10) ~ 10.
  EXPECT_GT(counts[1], 4 * counts[10]);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  Rng rng(5);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  for (int i = 1; i <= 10; ++i) {
    EXPECT_NEAR(counts[i], 10000, 600);
  }
}

// ----- strings -----

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(AsciiToLower("SeLeCt 1"), "select 1");
  EXPECT_EQ(AsciiToUpper("SeLeCt 1"), "SELECT 1");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(AsciiEqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(AsciiEqualsIgnoreCase("", ""));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("SELECT", "selec"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("a", "b"));
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

// ----- QueueingResource -----

TEST(QueueingResourceTest, SingleWorkerFifo) {
  QueueingResource r(1);
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0).done, 1.0);
  // Arrives while busy: queues.
  EXPECT_DOUBLE_EQ(r.Schedule(0.5, 1.0).done, 2.0);
  // Arrives after idle: starts immediately.
  EXPECT_DOUBLE_EQ(r.Schedule(5.0, 0.5).done, 5.5);
}

TEST(QueueingResourceTest, MultiWorkerParallelism) {
  QueueingResource r(2);
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0).done, 1.0);
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0).done, 1.0);  // Second worker.
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0).done, 2.0);  // Queues behind one.
}

TEST(QueueingResourceTest, ReportsFirstEarliestFreeWorkerAndStart) {
  QueueingResource r(3);
  const QueueingResource::Slot a = r.Schedule(0.0, 2.0);
  const QueueingResource::Slot b = r.Schedule(0.0, 1.0);
  const QueueingResource::Slot c = r.Schedule(0.0, 1.0);
  EXPECT_EQ(a.worker, 0u);
  EXPECT_EQ(b.worker, 1u);
  EXPECT_EQ(c.worker, 2u);
  // Workers 1 and 2 tie at t=1: the first one wins, and the job waits.
  const QueueingResource::Slot d = r.Schedule(0.5, 1.0);
  EXPECT_EQ(d.worker, 1u);
  EXPECT_DOUBLE_EQ(d.start, 1.0);
  EXPECT_DOUBLE_EQ(d.done, 2.0);
  // An arrival after every worker is free starts on arrival, still on the
  // earliest-free worker (2, free since t=1).
  const QueueingResource::Slot e = r.Schedule(9.0, 1.0);
  EXPECT_EQ(e.worker, 2u);
  EXPECT_DOUBLE_EQ(e.start, 9.0);
}

TEST(QueueingResourceTest, BacklogAndReset) {
  QueueingResource r(1);
  r.Schedule(0.0, 3.0);
  EXPECT_DOUBLE_EQ(r.CurrentBacklog(1.0), 2.0);
  EXPECT_DOUBLE_EQ(r.CurrentBacklog(4.0), 0.0);
  r.Reset();
  EXPECT_DOUBLE_EQ(r.CurrentBacklog(1.0), 0.0);
}

// ----- NonceWindow -----

TEST(NonceWindowTest, RemembersFirstResultPerNonce) {
  NonceWindow<int> window;
  EXPECT_EQ(window.Find(7), nullptr);
  window.Insert(7, 70);
  window.Insert(7, 71);  // A repeat keeps the first result.
  ASSERT_NE(window.Find(7), nullptr);
  EXPECT_EQ(*window.Find(7), 70);
  EXPECT_EQ(window.size(), 1u);
}

TEST(NonceWindowTest, EntryPastCapacityForgetsOnlyTheOldest) {
  constexpr uint64_t kCapacity = NonceWindow<uint64_t>::kCapacity;
  ASSERT_EQ(kCapacity, 65536u);
  NonceWindow<uint64_t> window;
  for (uint64_t nonce = 1; nonce <= kCapacity; ++nonce) {
    window.Insert(nonce, nonce * 10);
  }
  ASSERT_EQ(window.size(), kCapacity);
  ASSERT_NE(window.Find(1), nullptr);

  window.Insert(kCapacity + 1, 0);  // Entry 65537.
  EXPECT_EQ(window.size(), kCapacity);
  EXPECT_EQ(window.Find(1), nullptr);
  for (uint64_t nonce = 2; nonce <= kCapacity; ++nonce) {
    const uint64_t* kept = window.Find(nonce);
    ASSERT_NE(kept, nullptr) << nonce;
    EXPECT_EQ(*kept, nonce * 10);
  }
  ASSERT_NE(window.Find(kCapacity + 1), nullptr);
}

}  // namespace
}  // namespace dssp
