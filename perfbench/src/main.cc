// tinprov_perfbench: the end-to-end benchmark.
//
//   tinprov_perfbench --workload <serve-fifo|replay-prop|catchup-prop>
//       --seed <n> --seconds <s> --trace <0|1>
//       [--short] [--threads <n>] [--corrupt-answer]
//
// The last line of standard output is the JSON result; the line before
// it records the run configuration. Exit code 0 iff every check held;
// 2 on a refused configuration or bad arguments (no result printed).
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: tinprov_perfbench --workload "
               "<serve-fifo|replay-prop|catchup-prop> --seed <n> --seconds "
               "<s> --trace <0|1> [--short] [--threads <n>] "
               "[--corrupt-answer]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Settings settings;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    unsigned long long value = 0;
    if (arg == "--short") {
      settings.short_mode = true;
    } else if (arg == "--corrupt-answer") {
      settings.corrupt_answer = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      settings.workload = argv[++i];
    } else if (arg == "--seed" && ParseUnsigned(argv[i + 1], &value)) {
      settings.seed = value;
      ++i;
    } else if (arg == "--seconds") {
      settings.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && ParseUnsigned(argv[i + 1], &value) &&
               value <= 1) {
      settings.trace = value == 1;
      ++i;
    } else if (arg == "--threads" && ParseUnsigned(argv[i + 1], &value)) {
      settings.threads = value;
      ++i;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (!(settings.seconds > 0.0)) return Usage("--seconds must be positive");
  // Short mode is for smoke runs: one pass of each timed phase.
  if (settings.short_mode) settings.seconds = 0.0;

  // Durable state lives in the build tree of the checkout, one directory
  // per process, removed by the workload when it is done.
  ::mkdir(".bench_build", 0755);
  settings.scratch_dir = ".bench_build/run-" + std::to_string(::getpid());
  ::mkdir(settings.scratch_dir.c_str(), 0755);

  if (settings.corrupt_answer) perfbench::CorruptNextSample();
  int code = 0;
  if (settings.workload == "serve-fifo") {
    code = perfbench::RunServeFifo(settings);
  } else if (settings.workload == "replay-prop") {
    code = perfbench::RunReplayProp(settings);
  } else if (settings.workload == "catchup-prop") {
    code = perfbench::RunCatchupProp(settings);
  } else {
    code = Usage(("unknown workload '" + settings.workload + "'").c_str());
  }
  perfbench::RemoveTree(settings.scratch_dir);
  return code;
}
