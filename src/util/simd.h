// Dense-vector kernels for the proportional tracker's |V|-length
// buffers, plus the sparse gallop-merge kernel behind the pro-rata
// transfer (the repo's hottest loop).
//
// Every kernel here is runtime-dispatched: the bodies are compiled as
// scalar, SSE2, and AVX2 variants in per-ISA translation units (see
// util/simd_kernels.inc and util/simd_dispatch.h), the right table is
// picked once per process via CPUID (`TINPROV_SIMD=scalar|sse2|avx2`
// overrides it for testing), and each wrapper below latches the table
// in a function-local static — steady state is one indirect call, and
// a single portable binary runs the AVX2 lanes wherever the host
// supports them. TINPROV_NATIVE is no longer what turns vector lanes
// on; it only lets the compiler additionally vectorize *non-kernel*
// code with -march=native.
//
// Bit-exactness contract: label-sharded ingest (src/parallel/) must
// reproduce sequential results bit-for-bit, and a shard sees a subset
// of each list. Every per-element value here is
// therefore produced by an arithmetic expression that does not depend
// on its neighbours — single multiplies in the vector lanes, and the
// one fused-looking accumulate (a + b * f) kept as an unfused mul+add
// at every level (the per-ISA TUs build with -ffp-contract=off) — so
// the scalar/vector split, and the dispatch level itself, can differ
// between runs without changing results. Sum() is the documented
// exception: a reduction reassociates per lane width and is never used
// where tracker state depends on it. All functions tolerate n == 0 and
// require dst/src to be non-overlapping unless noted.
#ifndef TINPROV_UTIL_SIMD_H_
#define TINPROV_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/simd_dispatch.h"

namespace tinprov::simd {

/// dst[i] += src[i].
inline void Add(double* dst, const double* src, size_t n) {
  static const KernelTable& k = ActiveKernels();
  k.add(dst, src, n);
}

/// dst[i] *= factor.
inline void Scale(double* dst, double factor, size_t n) {
  static const KernelTable& k = ActiveKernels();
  k.scale(dst, factor, n);
}

/// Moves a fraction of src into dst, elementwise:
///   dst[i] += fraction * src[i];  src[i] *= (1 - fraction).
/// This is the inner loop of a proportional transfer between two dense
/// provenance vectors. src is mutated; dst and src must not alias.
inline void TransferFraction(double* dst, double* src, double fraction,
                             size_t n) {
  static const KernelTable& k = ActiveKernels();
  k.transfer_fraction(dst, src, fraction, n);
}

/// Returns sum(src[0..n)). The one kernel whose result may differ by
/// rounding between dispatch levels (lane accumulators reassociate);
/// used for reports and sanity checks, never for tracker state.
inline double Sum(const double* src, size_t n) {
  static const KernelTable& k = ActiveKernels();
  return k.sum(src, n);
}

// ---------------------------------------------------------------------
// Sparse (origin, quantity)-pair kernels. `Pair` is any standard-layout
// struct with a 32-bit integral `origin` followed by a double `quantity`
// (tinprov's ProvPair; duck-typed here so util/ stays below core/).
// Types matching the exact 16-byte {origin, pad, quantity} layout are
// reinterpreted into the dispatch table's PairLane and take the
// runtime-selected lanes; anything else falls back to the inline
// scalar templates below.

namespace internal {

template <typename Pair>
inline constexpr bool kHasSimdPairLayout =
    sizeof(Pair) == 16 && alignof(Pair) == 8;

/// First index in [1, n] at which p[index].origin >= key, found by
/// exponential probing then binary search. Preconditions: n >= 1 and
/// p[0].origin < key, so the result is the length of the maximal run of
/// entries strictly below `key`. Cost is O(log run) — cheap for the
/// interleaved case (run == 1 answers on the first probe) and the whole
/// point for skewed merges, where runs are long.
template <typename Pair>
inline size_t GallopRun(const Pair* p, size_t n, uint32_t key) {
  size_t hi = 1;
  while (hi < n && p[hi].origin < key) hi <<= 1;
  size_t lo = hi >> 1;  // p[lo].origin < key
  if (hi > n) hi = n;
  // Invariant: p[lo].origin < key, and hi == n or p[hi].origin >= key.
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (p[mid].origin < key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

}  // namespace internal

/// out[i] = {in[i].origin, in[i].quantity * factor} for i in [0, n).
/// Origins (and their padding bytes) are copied bit-exactly; out and in
/// must not overlap.
template <typename Pair>
inline void ScaleCopyPairs(Pair* out, const Pair* in, double factor,
                           size_t n) {
  if constexpr (internal::kHasSimdPairLayout<Pair>) {
    static const KernelTable& k = ActiveKernels();
    k.scale_copy_pairs(reinterpret_cast<PairLane*>(out),
                       reinterpret_cast<const PairLane*>(in), factor, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i].origin = in[i].origin;
      out[i].quantity = in[i].quantity * factor;
    }
  }
}

/// p[i].quantity *= factor in place — the "source keeps (1 - f)" pass
/// of a pro-rata transfer.
template <typename Pair>
inline void ScalePairsInPlace(Pair* p, double factor, size_t n) {
  if constexpr (internal::kHasSimdPairLayout<Pair>) {
    static const KernelTable& k = ActiveKernels();
    k.scale_pairs_in_place(reinterpret_cast<PairLane*>(p), factor, n);
  } else {
    for (size_t i = 0; i < n; ++i) p[i].quantity *= factor;
  }
}

/// Two-pointer gallop merge of origin-sorted pair lists:
///   out = a  +  factor * b      (merging by origin)
/// writing the merged, origin-sorted list to `out` (capacity at least
/// na + nb, overlapping neither input) and returning its length.
/// Disjoint runs are detected by galloping and moved with the SIMD
/// copy kernels; equal origins accumulate in a single unfused scalar
/// expression, a[i].quantity + b[j].quantity * factor — the exact
/// arithmetic the paper's Section 4.3 transfer specifies. The whole
/// merge dispatches once, so the per-ISA inner loops pay no indirect
/// calls.
template <typename Pair>
inline size_t GallopMergeScaled(Pair* out, const Pair* a, size_t na,
                                const Pair* b, size_t nb, double factor) {
  if constexpr (internal::kHasSimdPairLayout<Pair>) {
    static const KernelTable& k = ActiveKernels();
    return k.gallop_merge_scaled(reinterpret_cast<PairLane*>(out),
                                 reinterpret_cast<const PairLane*>(a), na,
                                 reinterpret_cast<const PairLane*>(b), nb,
                                 factor);
  }
  size_t i = 0;
  size_t j = 0;
  size_t k = 0;
  while (i < na && j < nb) {
    const uint32_t ka = a[i].origin;
    const uint32_t kb = b[j].origin;
    if (ka == kb) {
      out[k].origin = ka;
      out[k].quantity = a[i].quantity + b[j].quantity * factor;
      ++i;
      ++j;
      ++k;
    } else if (ka < kb) {
      // Inline the first element — interleaved lists mostly produce
      // runs of one — and gallop only once a run proves longer.
      out[k++] = a[i++];
      if (i < na && a[i].origin < kb) {
        const size_t run = internal::GallopRun(a + i, na - i, kb);
        std::memcpy(static_cast<void*>(out + k), a + i, run * sizeof(Pair));
        i += run;
        k += run;
      }
    } else {
      out[k].origin = b[j].origin;
      out[k].quantity = b[j].quantity * factor;
      ++k;
      ++j;
      if (j < nb && b[j].origin < ka) {
        const size_t run = internal::GallopRun(b + j, nb - j, ka);
        ScaleCopyPairs(out + k, b + j, factor, run);
        j += run;
        k += run;
      }
    }
  }
  if (i < na) {
    std::memcpy(static_cast<void*>(out + k), a + i, (na - i) * sizeof(Pair));
    k += na - i;
  }
  if (j < nb) {
    ScaleCopyPairs(out + k, b + j, factor, nb - j);
    k += nb - j;
  }
  return k;
}

}  // namespace tinprov::simd

#endif  // TINPROV_UTIL_SIMD_H_
