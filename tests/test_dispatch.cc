// Runtime SIMD dispatch: every kernel table the host can execute must
// produce bit-identical outputs (util/simd.h's contract — parallel
// sharded replay/ingest rely on it), with Sum() as the one documented
// tolerance-checked exception. Tables are compared side by side via
// KernelsFor(level), never above cpu::DetectSimdLevel() — a table the
// CPU cannot execute would fault, not fail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "util/cpu.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace tinprov {
namespace {

using simd::KernelTable;
using simd::PairLane;

// Every dispatch level this host can actually execute, scalar first.
std::vector<cpu::SimdLevel> ExecutableLevels() {
  std::vector<cpu::SimdLevel> levels;
  const auto max = cpu::DetectSimdLevel();
  for (const cpu::SimdLevel level :
       {cpu::SimdLevel::kScalar, cpu::SimdLevel::kSse2,
        cpu::SimdLevel::kAvx2}) {
    if (level <= max) levels.push_back(level);
  }
  return levels;
}

// Doubles spanning several magnitudes plus exact small integers, so
// both "typical quantity" and "bit-pattern edge" inputs are covered.
std::vector<double> FuzzDoubles(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 20);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<double> out(n);
  for (auto& v : out) {
    switch (kind(rng)) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = static_cast<double>(exponent(rng));
        break;
      default:
        v = std::ldexp(mantissa(rng), exponent(rng));
        break;
    }
  }
  return out;
}

// Origin-sorted pair list with random gaps (so gallop runs vary) and
// nonzero padding bytes (so "pads copied bit-exactly" is observable).
std::vector<PairLane> FuzzPairs(std::mt19937_64& rng, size_t n) {
  std::uniform_int_distribution<uint32_t> gap(1, 9);
  std::vector<PairLane> out(n);
  const std::vector<double> quantities = FuzzDoubles(rng, n);
  uint32_t origin = 0;
  for (size_t i = 0; i < n; ++i) {
    origin += gap(rng);
    out[i].origin = origin;
    out[i].pad = 0xA5A50000u + static_cast<uint32_t>(i);
    out[i].quantity = quantities[i];
  }
  return out;
}

void ExpectBytesEqual(const void* expected, const void* actual, size_t bytes,
                      const char* kernel, const char* level) {
  // Empty outputs may hold null data(), which memcmp must not be given.
  if (bytes == 0) return;
  EXPECT_EQ(std::memcmp(expected, actual, bytes), 0)
      << kernel << " diverges at dispatch level " << level;
}

// The sizes sweep remainders of every lane width (1..17 covers scalar
// tails of 2-, 4-, and 8-wide loops) plus larger merge-shaped inputs.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1023};

TEST(DispatchEquivalenceTest, DenseKernelsBitIdenticalAcrossLevels) {
  std::mt19937_64 rng(20220815);
  const auto levels = ExecutableLevels();
  const KernelTable& scalar = simd::KernelsFor(cpu::SimdLevel::kScalar);
  for (const size_t n : kSizes) {
    const std::vector<double> base_dst = FuzzDoubles(rng, n);
    const std::vector<double> base_src = FuzzDoubles(rng, n);
    const double factor = 0.3784512;
    const double fraction = 0.6123;

    std::vector<double> add_ref = base_dst;
    scalar.add(add_ref.data(), base_src.data(), n);
    std::vector<double> scale_ref = base_dst;
    scalar.scale(scale_ref.data(), factor, n);
    std::vector<double> tf_dst_ref = base_dst;
    std::vector<double> tf_src_ref = base_src;
    scalar.transfer_fraction(tf_dst_ref.data(), tf_src_ref.data(), fraction,
                             n);

    for (const cpu::SimdLevel level : levels) {
      const KernelTable& k = simd::KernelsFor(level);
      const char* name = cpu::SimdLevelName(level);

      std::vector<double> dst = base_dst;
      k.add(dst.data(), base_src.data(), n);
      ExpectBytesEqual(add_ref.data(), dst.data(), n * sizeof(double), "add",
                       name);

      dst = base_dst;
      k.scale(dst.data(), factor, n);
      ExpectBytesEqual(scale_ref.data(), dst.data(), n * sizeof(double),
                       "scale", name);

      dst = base_dst;
      std::vector<double> src = base_src;
      k.transfer_fraction(dst.data(), src.data(), fraction, n);
      ExpectBytesEqual(tf_dst_ref.data(), dst.data(), n * sizeof(double),
                       "transfer_fraction dst", name);
      ExpectBytesEqual(tf_src_ref.data(), src.data(), n * sizeof(double),
                       "transfer_fraction src", name);
    }
  }
}

TEST(DispatchEquivalenceTest, SumAgreesWithinReassociationTolerance) {
  // Sum is the documented exception: lane accumulators reassociate, so
  // the contract is "close", not "bit-identical".
  std::mt19937_64 rng(7);
  for (const size_t n : kSizes) {
    const std::vector<double> src = FuzzDoubles(rng, n);
    const double reference =
        simd::KernelsFor(cpu::SimdLevel::kScalar).sum(src.data(), n);
    double magnitude = 0.0;
    for (const double v : src) magnitude += std::abs(v);
    for (const cpu::SimdLevel level : ExecutableLevels()) {
      const double actual = simd::KernelsFor(level).sum(src.data(), n);
      EXPECT_NEAR(actual, reference, 1e-12 * (magnitude + 1.0))
          << "sum at " << cpu::SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(DispatchEquivalenceTest, PairKernelsBitIdenticalIncludingPadding) {
  std::mt19937_64 rng(424242);
  const KernelTable& scalar = simd::KernelsFor(cpu::SimdLevel::kScalar);
  for (const size_t n : kSizes) {
    const std::vector<PairLane> base = FuzzPairs(rng, n);
    const double factor = 0.87501;

    std::vector<PairLane> copy_ref(n);
    scalar.scale_copy_pairs(copy_ref.data(), base.data(), factor, n);
    std::vector<PairLane> inplace_ref = base;
    scalar.scale_pairs_in_place(inplace_ref.data(), factor, n);

    for (const cpu::SimdLevel level : ExecutableLevels()) {
      const KernelTable& k = simd::KernelsFor(level);
      const char* name = cpu::SimdLevelName(level);

      std::vector<PairLane> out(n);
      k.scale_copy_pairs(out.data(), base.data(), factor, n);
      // Full 16-byte structs, padding included: the wrapper
      // reinterprets whole ProvPair arrays, so pads must survive.
      ExpectBytesEqual(copy_ref.data(), out.data(), n * sizeof(PairLane),
                       "scale_copy_pairs", name);

      out = base;
      k.scale_pairs_in_place(out.data(), factor, n);
      ExpectBytesEqual(inplace_ref.data(), out.data(), n * sizeof(PairLane),
                       "scale_pairs_in_place", name);
    }
  }
}

TEST(DispatchEquivalenceTest, GallopMergeBitIdenticalAcrossLevels) {
  std::mt19937_64 rng(99173);
  const KernelTable& scalar = simd::KernelsFor(cpu::SimdLevel::kScalar);
  // Asymmetric shapes exercise gallop runs in both inputs; equal-origin
  // overlap comes from drawing both lists over the same origin space.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0}, {0, 5}, {5, 0}, {1, 1},   {3, 17},
      {17, 3}, {64, 64}, {1000, 10}, {10, 1000}, {511, 513}};
  for (const auto& [na, nb] : shapes) {
    const std::vector<PairLane> a = FuzzPairs(rng, na);
    const std::vector<PairLane> b = FuzzPairs(rng, nb);
    const double factor = 0.412345;

    std::vector<PairLane> ref(na + nb);
    const size_t ref_len = scalar.gallop_merge_scaled(
        ref.data(), a.data(), na, b.data(), nb, factor);
    ASSERT_LE(ref_len, na + nb);

    for (const cpu::SimdLevel level : ExecutableLevels()) {
      const KernelTable& k = simd::KernelsFor(level);
      std::vector<PairLane> out(na + nb);
      const size_t len = k.gallop_merge_scaled(out.data(), a.data(), na,
                                               b.data(), nb, factor);
      ASSERT_EQ(len, ref_len) << "gallop_merge_scaled length at "
                              << cpu::SimdLevelName(level);
      ExpectBytesEqual(ref.data(), out.data(), len * sizeof(PairLane),
                       "gallop_merge_scaled", cpu::SimdLevelName(level));
    }
  }
}

TEST(DispatchEquivalenceTest, PublicWrappersMatchScalarTable) {
  // The util/simd.h inline wrappers latch ActiveKernels(); whatever
  // level that resolved to must agree with the scalar reference.
  std::mt19937_64 rng(31337);
  const KernelTable& scalar = simd::KernelsFor(cpu::SimdLevel::kScalar);
  const std::vector<PairLane> a = FuzzPairs(rng, 257);
  const std::vector<PairLane> b = FuzzPairs(rng, 123);

  std::vector<PairLane> ref(a.size() + b.size());
  const size_t ref_len = scalar.gallop_merge_scaled(
      ref.data(), a.data(), a.size(), b.data(), b.size(), 0.25);

  std::vector<PairLane> out(a.size() + b.size());
  const size_t len = simd::GallopMergeScaled(out.data(), a.data(), a.size(),
                                             b.data(), b.size(), 0.25);
  ASSERT_EQ(len, ref_len);
  ExpectBytesEqual(ref.data(), out.data(), len * sizeof(PairLane),
                   "GallopMergeScaled wrapper", "active");
}

// ---------------------------------------------------------------------
// cpu:: plumbing.

TEST(CpuTest, ParseSimdLevelAcceptsKnownNamesCaseInsensitively) {
  EXPECT_EQ(cpu::ParseSimdLevel("scalar"), cpu::SimdLevel::kScalar);
  EXPECT_EQ(cpu::ParseSimdLevel("SSE2"), cpu::SimdLevel::kSse2);
  EXPECT_EQ(cpu::ParseSimdLevel("Avx2"), cpu::SimdLevel::kAvx2);
  EXPECT_EQ(cpu::ParseSimdLevel(""), std::nullopt);
  EXPECT_EQ(cpu::ParseSimdLevel("avx512"), std::nullopt);
  EXPECT_EQ(cpu::ParseSimdLevel("sse"), std::nullopt);
}

TEST(CpuTest, SimdLevelNamesRoundTrip) {
  for (const cpu::SimdLevel level :
       {cpu::SimdLevel::kScalar, cpu::SimdLevel::kSse2,
        cpu::SimdLevel::kAvx2}) {
    EXPECT_EQ(cpu::ParseSimdLevel(cpu::SimdLevelName(level)), level);
  }
}

TEST(CpuTest, ActiveLevelNeverExceedsDetected) {
  // Holds with or without a TINPROV_SIMD override: overrides only ever
  // clamp downward.
  EXPECT_LE(cpu::ActiveSimdLevel(), cpu::DetectSimdLevel());
}

TEST(CpuTest, ActiveKernelsNameMatchesActiveLevel) {
  EXPECT_STREQ(simd::ActiveKernels().name,
               cpu::SimdLevelName(cpu::ActiveSimdLevel()));
}

TEST(CpuTest, EveryExecutableTableNamesItsLevel) {
  for (const cpu::SimdLevel level : ExecutableLevels()) {
    EXPECT_STREQ(simd::KernelsFor(level).name, cpu::SimdLevelName(level));
  }
}

}  // namespace
}  // namespace tinprov
