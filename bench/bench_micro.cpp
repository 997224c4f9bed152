// google-benchmark microbenchmarks of the data structures that dominate the
// per-interaction cost of each policy (paper Sections 4.1-4.3 complexity
// analysis): heap vs queue buffer operations, sparse list merging, and the
// dense vector kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/buffer.h"
#include "merge_reference.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "policies/proportional_sparse.h"
#include "util/cpu.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"
#include "util/stopwatch.h"

namespace tinprov {
namespace {

void BM_HeapPushPop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<ProvTriple> triples(n);
  for (size_t i = 0; i < n; ++i) {
    triples[i] = {static_cast<VertexId>(i), rng.NextDouble(), 1.0};
  }
  for (auto _ : state) {
    BinaryHeap<ProvTriple, EarlierBirthFirst> heap;
    for (const ProvTriple& t : triples) heap.Push(t);
    while (!heap.empty()) benchmark::DoNotOptimize(heap.Pop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_HeapPushPop)->Range(64, 16384);

void BM_RingDequeFifo(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    RingDeque<ProvPair> deque;
    for (size_t i = 0; i < n; ++i) {
      deque.PushBack({static_cast<VertexId>(i), 1.0});
    }
    while (!deque.empty()) benchmark::DoNotOptimize(deque.PopFront());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_RingDequeFifo)->Range(64, 16384);

void BM_RingDequeLifo(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    RingDeque<ProvPair> deque;
    for (size_t i = 0; i < n; ++i) {
      deque.PushBack({static_cast<VertexId>(i), 1.0});
    }
    while (!deque.empty()) benchmark::DoNotOptimize(deque.PopBack());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_RingDequeLifo)->Range(64, 16384);

SparseVector MakeSparse(size_t len, uint64_t seed) {
  Rng rng(seed);
  SparseVector v;
  VertexId origin = 0;
  for (size_t i = 0; i < len; ++i) {
    origin += static_cast<VertexId>(1 + rng.NextBounded(5));
    v.push_back({origin, rng.NextDouble() + 0.1});
  }
  return v;
}

// The pre-PR merge path, kept as the committed baseline's comparison
// point: the destination must be copied each round because the
// reference merge destroys it, exactly as the old replay loop's
// in-place merge grew dst in situ.
void BM_SparseMergeReference(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const SparseVector src = MakeSparse(len, 2);
  const SparseVector base = MakeSparse(len, 3);
  for (auto _ : state) {
    SparseVector dst = base;
    MergeScaled(&dst, src, 0.5);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * len * 2);
}
BENCHMARK(BM_SparseMergeReference)->Range(16, 65536);

// The production path of SparseProportionalBase::Process: one gallop
// pass into reusable pooled scratch, inputs untouched. Same logical
// operation as the reference (merge src*f over base), so the two
// series are directly comparable in BENCH_micro.json; acceptance
// target is >= 2x the reference's items/s.
void BM_SparseMerge(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const SparseVector src = MakeSparse(len, 2);
  const SparseVector base = MakeSparse(len, 3);
  NodePool pool;
  SparseVector scratch(&pool);
  for (auto _ : state) {
    MergeScaledInto(&scratch, base, src, 0.5);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * len * 2);
}
BENCHMARK(BM_SparseMerge)->Range(16, 65536);

// The same gallop merge pinned to one dispatch table, registered in
// main() once per level the host can execute ("BM_SparseMergeDispatch/
// scalar" etc.). These rows extend the >= 2x-the-reference acceptance
// gate to every dispatch level (scripts/merge_gate.py checks the
// recorded JSON), and the scalar row doubles as the portable-path
// floor the runtime dispatch must beat.
std::vector<simd::PairLane> MakePairLanes(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<simd::PairLane> v(len);
  uint32_t origin = 0;
  for (size_t i = 0; i < len; ++i) {
    origin += static_cast<uint32_t>(1 + rng.NextBounded(5));
    v[i] = {origin, 0, rng.NextDouble() + 0.1};
  }
  return v;
}

void BM_SparseMergeDispatch(benchmark::State& state, cpu::SimdLevel level) {
  const size_t len = static_cast<size_t>(state.range(0));
  const std::vector<simd::PairLane> a = MakePairLanes(len, 3);
  const std::vector<simd::PairLane> b = MakePairLanes(len, 2);
  std::vector<simd::PairLane> out(2 * len);
  const simd::KernelTable& kernels = simd::KernelsFor(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.gallop_merge_scaled(
        out.data(), a.data(), len, b.data(), len, 0.5));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * len * 2);
}

void RegisterDispatchBenchmarks() {
  for (const cpu::SimdLevel level :
       {cpu::SimdLevel::kScalar, cpu::SimdLevel::kSse2,
        cpu::SimdLevel::kAvx2}) {
    if (level > cpu::DetectSimdLevel()) continue;  // table would fault
    const std::string name =
        std::string("BM_SparseMergeDispatch/") + cpu::SimdLevelName(level);
    benchmark::RegisterBenchmark(name.c_str(), BM_SparseMergeDispatch, level)
        ->Range(16, 65536);
  }
}

// Skewed shape: a short update list merging into a long accumulated
// one — the steady state of replay on a hub vertex. Galloping skips
// the long runs of untouched destination entries, so this is where the
// kernel's advantage is largest.
void BM_SparseMergeSkewed(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const SparseVector src = MakeSparse(len / 16 + 1, 2);
  const SparseVector base = MakeSparse(len, 3);
  NodePool pool;
  SparseVector scratch(&pool);
  for (auto _ : state) {
    MergeScaledInto(&scratch, base, src, 0.5);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (len + len / 16 + 1));
}
BENCHMARK(BM_SparseMergeSkewed)->Range(256, 65536);

// The "source keeps (1 - f)" pass — simd::ScalePairsInPlace — which
// follows every partial transfer.
void BM_SparseScalePairs(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  SparseVector pairs = MakeSparse(len, 5);
  for (auto _ : state) {
    simd::ScalePairsInPlace(pairs.data(), 0.999999, pairs.size());
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * len);
}
BENCHMARK(BM_SparseScalePairs)->Range(64, 65536);

void BM_DenseTransferFraction(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> src(n, 1.0);
  std::vector<double> dst(n, 1.0);
  for (auto _ : state) {
    simd::TransferFraction(dst.data(), src.data(), 0.5, n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::DoNotOptimize(src.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DenseTransferFraction)->Range(8, 1 << 20);

void BM_DenseAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> src(n, 1.0);
  std::vector<double> dst(n, 1.0);
  for (auto _ : state) {
    simd::Add(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DenseAdd)->Range(8, 1 << 20);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(4);
  ZipfDistribution zipf(static_cast<uint64_t>(state.range(0)), 1.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Range(1024, 1 << 24);

// The obs/ primitives themselves, so a metrics-hot-path regression
// shows up here before it shows up as engine overhead.
void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.micro_counter");
  for (auto _ : state) {
    counter->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("bench.micro_histogram");
  uint64_t value = 1;
  for (auto _ : state) {
    histogram->Observe(value);
    value = (value * 2862933555777941757ULL + 3037000493ULL) >> 32;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

// Overhead smoke for the ISSUE-6 acceptance bound: the sparse-merge
// replay kernel with per-iteration instrumentation (one counter add +
// one histogram observe, the densest the engine ever instruments a hot
// loop) must stay within 2% of the bare kernel. Warn-only — timing
// noise on shared CI boxes is not a build failure — but the number is
// printed on every run so a drift is visible in the logs.
void ReportMetricsOverhead() {
  constexpr size_t kLen = 256;
  constexpr size_t kIters = 20000;
  constexpr int kReps = 9;
  const SparseVector src = MakeSparse(kLen, 2);
  const SparseVector base = MakeSparse(kLen, 3);
  NodePool pool;
  SparseVector scratch(&pool);

  const auto time_loop = [&](bool instrumented) {
    Stopwatch watch;
    for (size_t i = 0; i < kIters; ++i) {
      MergeScaledInto(&scratch, base, src, 0.5);
      benchmark::DoNotOptimize(scratch.data());
      if (instrumented) {
        TINPROV_COUNTER_ADD("bench.overhead_probe", 1);
        TINPROV_HISTOGRAM_OBSERVE("bench.overhead_probe_len", scratch.size());
      }
    }
    return watch.ElapsedSeconds();
  };

  std::vector<double> raw(kReps);
  std::vector<double> instrumented(kReps);
  time_loop(false);  // warm the pool and caches
  for (int rep = 0; rep < kReps; ++rep) {
    raw[rep] = time_loop(false);
    instrumented[rep] = time_loop(true);
  }
  std::nth_element(raw.begin(), raw.begin() + kReps / 2, raw.end());
  std::nth_element(instrumented.begin(), instrumented.begin() + kReps / 2,
                   instrumented.end());
  const double raw_median = raw[kReps / 2];
  const double instr_median = instrumented[kReps / 2];
  const double overhead = raw_median > 0.0
                              ? (instr_median - raw_median) / raw_median
                              : 0.0;
  std::printf(
      "metrics overhead smoke: sparse-merge %zu-entry kernel, "
      "bare %.3fus/iter vs instrumented %.3fus/iter -> %+.2f%%\n",
      kLen,
      raw_median / kIters * 1e6, instr_median / kIters * 1e6,
      overhead * 100.0);
  if (overhead > 0.02) {
    std::printf(
        "WARNING: metrics overhead %.2f%% exceeds the 2%% budget — "
        "re-run on a quiet machine before chasing it\n",
        overhead * 100.0);
  }

  // Third series: the same instrumented kernel while an ops-plane
  // Recorder samples the whole registry every 10ms from its background
  // thread — the EnableOpsServer steady state. The registry scrape is
  // read-only over sharded atomics, so it must not push the hot loop
  // past the same 2% budget.
  obs::Recorder recorder({/*interval_ms=*/10, /*capacity=*/512});
  if (recorder.Start().ok()) {
    std::vector<double> sampled(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      sampled[rep] = time_loop(true);
    }
    recorder.Stop();
    std::nth_element(sampled.begin(), sampled.begin() + kReps / 2,
                     sampled.end());
    const double sampled_median = sampled[kReps / 2];
    const double sampled_overhead =
        raw_median > 0.0 ? (sampled_median - raw_median) / raw_median : 0.0;
    std::printf(
        "recorder overhead smoke: instrumented kernel + 10ms registry "
        "sampler %.3fus/iter -> %+.2f%% vs bare (%zu samples taken)\n",
        sampled_median / kIters * 1e6, sampled_overhead * 100.0,
        recorder.total_samples());
    if (sampled_overhead > 0.02) {
      std::printf(
          "WARNING: recorder overhead %.2f%% exceeds the 2%% budget — "
          "re-run on a quiet machine before chasing it\n",
          sampled_overhead * 100.0);
    }
  }
}

}  // namespace
}  // namespace tinprov

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Host-shape context for bench_compare.py: which kernel table this
  // run dispatched to, and the host ceiling it was clamped from.
  benchmark::AddCustomContext(
      "simd", tinprov::cpu::SimdLevelName(tinprov::cpu::ActiveSimdLevel()));
  benchmark::AddCustomContext(
      "simd_detected",
      tinprov::cpu::SimdLevelName(tinprov::cpu::DetectSimdLevel()));
  benchmark::AddCustomContext("tinprov_native",
                              tinprov::bench::kNativeBuild ? "true" : "false");
  benchmark::AddCustomContext("compiler", tinprov::bench::CompilerVersion());
  tinprov::RegisterDispatchBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tinprov::ReportMetricsOverhead();
  return 0;
}
