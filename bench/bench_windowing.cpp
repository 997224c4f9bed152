// Reproduces paper Figure 7: runtime and memory of the windowing approach
// (Section 5.3.1) for different window sizes W.
//
// The paper sweeps W from 2K to 16K interactions against the full-size
// streams (2.8M - 45.5M interactions). Because this harness runs scaled-down
// streams, it scales W by the same ratio, keeping W/|R| — the quantity that
// determines the reset frequency, and with it the runtime/memory trade-off —
// equal to the paper's. Small scales would round several of the five W
// values to the same 1 or 2, so each scaled W is floored at paper W / 2000:
// the sweep then keeps the paper's 1:2:4:6:8 proportions and always
// measures five distinct points. The bench exits non-zero if the scaled
// W values are not strictly increasing.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analytics/experiment.h"
#include "analytics/report.h"
#include "bench_util.h"
#include "scalable/windowed.h"
#include "util/memory.h"

using namespace tinprov;

namespace {

// Full-size interaction counts from paper Table 6.
double PaperInteractions(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kBitcoin:
      return 45.5e6;
    case DatasetKind::kCtu:
      return 2.8e6;
    case DatasetKind::kProsper:
      return 3.08e6;
    default:
      return 1e6;
  }
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  bench::PrintHeader("Figure 7", "Windowing approach: cost vs window size W");

  bench::JsonBenchReporter reporter("bench_windowing");

  const std::vector<double> paper_windows = {2000, 4000, 8000, 12000, 16000};
  for (const DatasetKind dataset :
       {DatasetKind::kBitcoin, DatasetKind::kCtu, DatasetKind::kProsper}) {
    const Tin tin = bench::MustMakeDataset(dataset, scale);
    const double ratio = static_cast<double>(tin.num_interactions()) /
                         PaperInteractions(dataset);
    std::printf("\n%s network (%zu interactions; W scaled by %.2g to keep "
                "the paper's W/|R|, floored at paper W / 2000):\n",
                std::string(DatasetName(dataset)).c_str(),
                tin.num_interactions(), ratio);
    TablePrinter table({"paper W", "scaled W", "runtime", "peak memory",
                        "resets"});
    size_t previous_window = 0;
    for (const double paper_w : paper_windows) {
      const size_t window =
          std::max(static_cast<size_t>(paper_w / 2000),
                   static_cast<size_t>(paper_w * ratio + 0.5));
      if (window <= previous_window) {
        std::fprintf(stderr,
                     "%s: scaled W %zu (paper W %.0f) does not exceed the "
                     "previous %zu — the sweep would repeat a point\n",
                     std::string(DatasetName(dataset)).c_str(), window,
                     paper_w, previous_window);
        return 1;
      }
      previous_window = window;
      WindowedTracker tracker(tin.num_vertices(), window);
      auto m = MeasureRun(&tracker, tin, "");
      if (!m.ok()) {
        std::fprintf(stderr, "measurement failed\n");
        return 1;
      }
      reporter.Record(std::string(DatasetName(dataset)) + "/W=" +
                          std::to_string(static_cast<size_t>(paper_w)),
                      m->seconds,
                      m->seconds > 0.0
                          ? static_cast<double>(tin.num_interactions()) /
                                m->seconds
                          : 0.0,
                      m->peak_memory);
      table.AddRow({std::to_string(static_cast<size_t>(paper_w)),
                    std::to_string(window), FormatSeconds(m->seconds),
                    FormatBytes(m->peak_memory),
                    std::to_string(tracker.reset_count())});
    }
    std::printf("%s", table.ToString().c_str());
  }
  std::printf(
      "\nExpected shape (paper): larger W -> fewer O(|V|) resets -> lower "
      "runtime, but\nhigher memory (lists live longer before being collapsed "
      "to alpha).\n");
  return 0;
}
