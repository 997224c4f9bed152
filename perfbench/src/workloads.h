// The three workloads. Each generates its input from settings.seed,
// measures for settings.seconds, checks its outputs, prints the result
// line, and returns the exit code (0 iff every check held).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

int RunServeFifo(const Settings& settings);
int RunReplayProp(const Settings& settings);
int RunCatchupProp(const Settings& settings);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
