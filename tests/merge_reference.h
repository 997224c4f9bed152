// Two-pass in-place reference for the sparse pro-rata merge, the
// implementation the gallop kernel replaced. bench/bench_micro.cpp's
// BM_SparseMergeReference times it as the baseline scripts/merge_gate.py
// holds BM_SparseMerge above; tests/test_policies.cc pins its semantics
// on hand-built lists. The replay loop itself never runs it.
#ifndef TINPROV_TESTS_MERGE_REFERENCE_H_
#define TINPROV_TESTS_MERGE_REFERENCE_H_

#include <cstddef>

#include "policies/proportional_base.h"

namespace tinprov {

/// dst += fraction * src, merging by origin; both vectors stay sorted.
inline void MergeScaled(SparseVector* dst, const SparseVector& src,
                        double fraction) {
  if (fraction == 0.0 || src.empty()) return;
  if (dst->empty()) {
    dst->reserve(src.size());
    for (const ProvPair& entry : src) {
      dst->push_back({entry.origin, entry.quantity * fraction});
    }
    return;
  }

  // Pass 1: count src origins missing from dst.
  size_t extra = 0;
  {
    size_t i = 0;
    size_t j = 0;
    while (j < src.size()) {
      if (i == dst->size() || src[j].origin < (*dst)[i].origin) {
        ++extra;
        ++j;
      } else if ((*dst)[i].origin < src[j].origin) {
        ++i;
      } else {
        ++i;
        ++j;
      }
    }
  }

  // Pass 2: merge backwards in place so no temporary list is needed.
  const size_t old_size = dst->size();
  dst->resize(old_size + extra);
  size_t i = old_size;      // one past the last unmerged dst entry
  size_t j = src.size();    // one past the last unmerged src entry
  size_t k = dst->size();   // one past the next write slot
  while (j > 0) {
    if (i > 0 && (*dst)[i - 1].origin == src[j - 1].origin) {
      (*dst)[--k] = {src[j - 1].origin,
                     (*dst)[i - 1].quantity + src[j - 1].quantity * fraction};
      --i;
      --j;
    } else if (i > 0 && (*dst)[i - 1].origin > src[j - 1].origin) {
      (*dst)[--k] = (*dst)[--i];
    } else {
      (*dst)[--k] = {src[j - 1].origin, src[j - 1].quantity * fraction};
      --j;
    }
  }
  // Remaining dst entries (i of them) are already in their final slots.
}

}  // namespace tinprov

#endif  // TINPROV_TESTS_MERGE_REFERENCE_H_
