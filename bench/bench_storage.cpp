// Durable-log cost and crash recovery: what the storage layer charges
// at ingest time (checksummed segment appends, synced vs buffered, and
// epoch snapshot writes) and what it charges at restart (recovery time
// vs trusted log length, with and without a snapshot to shortcut the
// replay). Not a paper experiment — the paper replays offline — but
// the price tag on the serve layer's restart-resume guarantee.
//
// The binary doubles as the crash-smoke harness (scripts/crash_smoke.sh):
//   TINPROV_CRASH_ROLE=ingest  — run a durable ProvenanceService over a
//     deterministic generated stream rooted at TINPROV_CRASH_DIR; the
//     harness kill -9s this process mid-flight. Writes a manifest file
//     first so the verifier can cross-check the run's shape.
//     TINPROV_CRASH_THROTTLE_US slows the stream so the kill lands
//     mid-ingest rather than after the drain.
//   TINPROV_CRASH_ROLE=verify — recover the directory the kill left
//     behind and assert the contract: the trusted log is an exact
//     prefix of the generated stream and the recovered tracker state is
//     bit-identical to a clean replay of that prefix. On mismatch the
//     recovered and reference states are dumped next to the log
//     (diff-*.bin) for the CI failure artifact, and the exit is 1. Then
//     a ProvenanceService restarted over the directory must answer
//     historical Provenance(v, t) queries from its seeded history
//     exactly as clean prefix replays do.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "bench_util.h"
#include "datagen/generator.h"
#include "serve/service.h"
#include "storage/durable_log.h"
#include "storage/env.h"
#include "storage/recovery.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"

using namespace tinprov;

namespace {

// --- Shared helpers --------------------------------------------------------

std::string ScratchDir(const char* tag) {
  std::string dir = "bench_storage_" + std::string(tag);
  (void)storage::Env::Posix()->CreateDir(dir);
  return dir;
}

void RemoveDirRecursive(const std::string& dir) {
  auto names = storage::Env::Posix()->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)storage::Env::Posix()->DeleteFile(storage::JoinPath(dir, name));
    }
  }
  ::rmdir(dir.c_str());
}

/// The deterministic crash-smoke dataset: both roles regenerate it from
/// the same scale, so the verifier never needs the ingester's memory.
GeneratorConfig CrashConfig(double scale) {
  GeneratorConfig config;
  config.num_vertices = 200;
  config.num_interactions =
      std::max<size_t>(5000, static_cast<size_t>(200000 * scale));
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = 777;
  return config;
}

Tin MustGenerate(const GeneratorConfig& config) {
  auto tin = Generate(config);
  if (!tin.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 tin.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(tin).value();
}

TrackerSpec CrashSpec() {
  const char* name = std::getenv("TINPROV_CRASH_SPEC");
  TrackerSpec spec;
  spec.name = (name != nullptr && name[0] != '\0') ? name : "Prop-sparse";
  spec.mode = TrackerMode::kStreaming;
  return spec;
}

// --- Crash-smoke roles -----------------------------------------------------

/// Rate-limits a stream so an external kill -9 lands mid-ingest.
class ThrottledStream : public InteractionStream {
 public:
  ThrottledStream(std::unique_ptr<InteractionStream> base, uint64_t sleep_us)
      : base_(std::move(base)), sleep_us_(sleep_us) {}

  bool Next(Interaction* out) override {
    if (sleep_us_ > 0 && ++count_ % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    }
    return base_->Next(out);
  }

  DatasetStats Stats() const override { return base_->Stats(); }

 private:
  std::unique_ptr<InteractionStream> base_;
  uint64_t sleep_us_;
  uint64_t count_ = 0;
};

std::string RequiredCrashDir() {
  const char* dir = std::getenv("TINPROV_CRASH_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    std::fprintf(stderr, "TINPROV_CRASH_DIR must name the durable dir\n");
    std::exit(2);
  }
  return dir;
}

int RunCrashIngest() {
  const std::string dir = RequiredCrashDir();
  const double scale = bench::GetScale();
  const GeneratorConfig config = CrashConfig(scale);
  const Tin tin = MustGenerate(config);
  const TrackerSpec spec = CrashSpec();

  // Manifest first: the verifier cross-checks that both sides agree on
  // the run's shape before trusting a "prefix of the dataset" verdict.
  if (!storage::Env::Posix()->CreateDir(dir).ok()) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 2;
  }
  {
    std::FILE* manifest =
        std::fopen(storage::JoinPath(dir, "MANIFEST.txt").c_str(), "w");
    if (manifest == nullptr) return 2;
    std::fprintf(manifest, "spec=%s\nseed=%llu\ninteractions=%zu\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(config.seed),
                 tin.num_interactions());
    std::fclose(manifest);
  }

  ServeOptions options;
  options.epoch_interval = 1024;
  options.ingest_batch = 128;
  options.durability.dir = dir;
  options.durability.log.rotate_bytes = 256 * 1024;

  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "service create failed: %s\n",
                 service.status().ToString().c_str());
    return 2;
  }

  uint64_t throttle_us = 0;
  if (const char* env = std::getenv("TINPROV_CRASH_THROTTLE_US")) {
    throttle_us = std::strtoull(env, nullptr, 10);
  }
  std::unique_ptr<InteractionStream> stream = std::make_unique<VectorStream>(
      tin.num_vertices(), tin.interactions());
  stream =
      std::make_unique<ThrottledStream>(std::move(stream), throttle_us);

  Status status = (*service)->Start(std::move(stream));
  if (status.ok()) status = (*service)->WaitIngest();
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
    return 2;
  }
  std::printf("crash-ingest: drained %zu interactions without being killed\n",
              tin.num_interactions());
  return 0;
}

int RunCrashVerify() {
  const std::string dir = RequiredCrashDir();
  const double scale = bench::GetScale();
  const GeneratorConfig config = CrashConfig(scale);
  const Tin tin = MustGenerate(config);
  const std::vector<Interaction>& data = tin.interactions();
  const TrackerSpec spec = CrashSpec();

  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  if (!factory.ok()) {
    std::fprintf(stderr, "factory failed: %s\n",
                 factory.status().ToString().c_str());
    return 2;
  }

  storage::RecoveryManager manager(storage::Env::Posix(), dir);
  auto recovered = manager.Recover(*factory);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }

  // Contract 1: the trusted log is an exact prefix of the stream fed in.
  if (recovered->prefix > data.size()) {
    std::fprintf(stderr, "recovered prefix %llu exceeds the dataset (%zu)\n",
                 static_cast<unsigned long long>(recovered->prefix),
                 data.size());
    return 1;
  }
  for (size_t i = 0; i < recovered->log.size(); ++i) {
    const Interaction& got = recovered->log[i];
    const Interaction& want = data[i];
    if (got.src != want.src || got.dst != want.dst || got.t != want.t ||
        got.quantity != want.quantity) {
      std::fprintf(stderr, "trusted log diverges at interaction %zu\n", i);
      return 1;
    }
  }

  // Contract 2: the recovered state is bit-identical to a clean replay
  // of exactly that prefix.
  std::unique_ptr<Tracker> reference = (*factory)();
  for (const Interaction& interaction : recovered->log) {
    const Status status = reference->Process(interaction);
    if (!status.ok()) {
      std::fprintf(stderr, "reference replay failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  std::vector<uint8_t> reference_state;
  reference->SaveState(&reference_state);
  if (recovered->state != reference_state) {
    size_t first = 0;
    const size_t common =
        std::min(recovered->state.size(), reference_state.size());
    while (first < common && recovered->state[first] == reference_state[first])
      ++first;
    std::fprintf(stderr,
                 "recovered state diverges from clean replay at byte %zu "
                 "(%zu vs %zu bytes total)\n",
                 first, recovered->state.size(), reference_state.size());
    // Dump both states next to the log for the CI failure artifact.
    for (const auto& [name, bytes] :
         {std::pair<const char*, const std::vector<uint8_t>*>(
              "diff-recovered-state.bin", &recovered->state),
          std::pair<const char*, const std::vector<uint8_t>*>(
              "diff-reference-state.bin", &reference_state)}) {
      std::FILE* out =
          std::fopen(storage::JoinPath(dir, name).c_str(), "wb");
      if (out != nullptr) {
        std::fwrite(bytes->data(), 1, bytes->size(), out);
        std::fclose(out);
      }
    }
    return 1;
  }

  // Contract 3: a service restarted over the directory answers
  // historical queries across the recovered prefix like clean prefix
  // replays (its history is seeded from the log and snapshots above).
  ServeOptions restart;
  restart.durability.dir = dir;
  auto service = ProvenanceService::Create(spec, tin.Stats(), restart);
  if (!service.ok()) {
    std::fprintf(stderr, "restart failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  const std::vector<Interaction>& log = recovered->log;
  const size_t history_probes = log.empty() ? 0 : 8;
  std::unique_ptr<Tracker> replay = (*factory)();
  size_t applied = 0;
  for (size_t k = 0; k < history_probes; ++k) {
    const Timestamp t = log[(log.size() - 1) * k / (history_probes - 1)].t;
    const VertexId v =
        static_cast<VertexId>((k * 37) % tin.num_vertices());
    for (; applied < log.size() && log[applied].t <= t; ++applied) {
      if (!replay->Process(log[applied]).ok()) return 2;
    }
    const QueryResult result = (*service)->Provenance(v, t);
    const Buffer expected = replay->Provenance(v);
    if (!result.status.ok() || result.buffer.total != expected.total ||
        result.buffer.entries != expected.entries) {
      std::fprintf(stderr,
                   "historical answer after restart differs from a clean "
                   "replay of prefix %zu (vertex %u): %s\n",
                   applied, static_cast<unsigned>(v),
                   result.status.ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "crash-verify: OK prefix=%llu/%zu snapshot_prefix=%llu replayed=%llu "
      "torn=%zu corrupt=%zu dropped=%zu snapshots_skipped=%zu "
      "history_probes=%zu\n",
      static_cast<unsigned long long>(recovered->prefix), data.size(),
      static_cast<unsigned long long>(recovered->snapshot_prefix),
      static_cast<unsigned long long>(recovered->replayed),
      recovered->torn_tails, recovered->corrupt_records,
      recovered->segments_dropped, recovered->snapshots_skipped,
      history_probes);
  return 0;
}

// --- Table mode ------------------------------------------------------------

struct AppendRun {
  double seconds = 0.0;
  uint64_t bytes = 0;
};

AppendRun RunAppends(const std::vector<Interaction>& data, bool synced) {
  const std::string dir = ScratchDir(synced ? "synced" : "buffered");
  storage::DurableLogOptions options;
  options.rotate_bytes = 4 * 1024 * 1024;
  options.sync_each_append = synced;
  auto log = storage::DurableLog::Open(storage::Env::Posix(), dir, 0, 0,
                                       options);
  if (!log.ok()) {
    std::fprintf(stderr, "open failed: %s\n", log.status().ToString().c_str());
    std::exit(1);
  }
  constexpr size_t kBatch = 256;
  Stopwatch watch;
  for (size_t i = 0; i < data.size(); i += kBatch) {
    const size_t n = std::min(kBatch, data.size() - i);
    const Status status = (*log)->Append(&data[i], n);
    if (!status.ok()) {
      std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  if (!(*log)->Seal().ok()) std::exit(1);
  AppendRun run;
  run.seconds = watch.ElapsedSeconds();
  auto names = storage::Env::Posix()->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      auto size = storage::Env::Posix()->FileSize(storage::JoinPath(dir, name));
      if (size.ok()) run.bytes += *size;
    }
  }
  RemoveDirRecursive(dir);
  return run;
}

int RunTables() {
  const double scale = bench::GetScale();
  bench::JsonBenchReporter reporter("bench_storage");
  bench::PrintHeader("STORAGE",
                     "durable log write cost and crash-recovery time");

  GeneratorConfig config = CrashConfig(scale);
  const Tin tin = MustGenerate(config);
  const std::vector<Interaction>& data = tin.interactions();
  const size_t total = data.size();

  // (a) Append throughput, synced vs buffered.
  std::printf("\n[a] segment append throughput (%zu interactions, "
              "batch 256)\n",
              total);
  std::printf("  %-10s %12s %12s %12s\n", "mode", "seconds", "Minter/s",
              "MiB/s");
  for (const bool synced : {true, false}) {
    const AppendRun run = RunAppends(data, synced);
    const double rate = static_cast<double>(total) / run.seconds;
    std::printf("  %-10s %12.4f %12.3f %12.2f\n",
                synced ? "synced" : "buffered", run.seconds, rate / 1e6,
                static_cast<double>(run.bytes) / run.seconds / (1 << 20));
    reporter.Record(std::string("storage/append/") +
                        (synced ? "synced" : "buffered"),
                    run.seconds, rate);
  }

  // (b) Recovery time vs trusted log length, with and without a
  // snapshot shortcutting the replay.
  auto factory = TrackerRegistry::Global().Factory(
      TrackerSpec{"Prop-sparse", {}, TrackerMode::kStreaming}, tin.Stats());
  if (!factory.ok()) {
    std::fprintf(stderr, "factory failed: %s\n",
                 factory.status().ToString().c_str());
    return 1;
  }
  std::printf("\n[b] recovery time vs log length (Prop-sparse)\n");
  std::printf("  %-12s %-10s %12s %12s %12s\n", "interactions", "snapshot",
              "write s", "recover s", "replayed");
  for (const size_t length : {total / 4, total / 2, total}) {
    for (const bool with_snapshot : {false, true}) {
      const std::string dir = ScratchDir("recover");
      storage::DurableLogOptions options;
      options.rotate_bytes = 1024 * 1024;
      options.sync_each_append = false;
      auto log = storage::DurableLog::Open(storage::Env::Posix(), dir, 0, 0,
                                           options);
      if (!log.ok()) return 1;
      std::unique_ptr<Tracker> writer = (*factory)();
      Stopwatch write_watch;
      const size_t snapshot_every = length / 4 + 1;
      size_t last_snapshot = 0;
      for (size_t i = 0; i < length; i += 256) {
        const size_t n = std::min<size_t>(256, length - i);
        for (size_t j = 0; j < n; ++j) {
          if (!writer->Process(data[i + j]).ok()) return 1;
        }
        if (!(*log)->Append(&data[i], n).ok()) return 1;
        if (with_snapshot && i + n - last_snapshot >= snapshot_every) {
          last_snapshot = i + n;
          std::vector<uint8_t> state;
          writer->SaveState(&state);
          if (!(*log)->WriteSnapshot(i + n, data[i + n - 1].t, state).ok()) {
            return 1;
          }
        }
      }
      if (!(*log)->Seal().ok()) return 1;
      const double write_seconds = write_watch.ElapsedSeconds();
      log->reset();

      storage::RecoveryManager manager(storage::Env::Posix(), dir);
      Stopwatch recover_watch;
      auto recovered = manager.Recover(*factory);
      const double recover_seconds = recover_watch.ElapsedSeconds();
      if (!recovered.ok() || recovered->prefix != length) {
        std::fprintf(stderr, "recovery failed or short: %s\n",
                     recovered.ok() ? "short prefix"
                                    : recovered.status().ToString().c_str());
        return 1;
      }
      std::printf("  %-12zu %-10s %12.4f %12.4f %12llu\n", length,
                  with_snapshot ? "yes" : "no", write_seconds,
                  recover_seconds,
                  static_cast<unsigned long long>(recovered->replayed));
      reporter.Record("storage/recover/len=" + std::to_string(length) +
                          (with_snapshot ? "/snapshot" : "/full-replay"),
                      recover_seconds, static_cast<double>(length) /
                                           recover_seconds);
      RemoveDirRecursive(dir);
    }
  }

  std::printf("\nstorage bench complete\n");
  return 0;
}

}  // namespace

int main() {
  const char* role = std::getenv("TINPROV_CRASH_ROLE");
  if (role != nullptr && std::strcmp(role, "ingest") == 0) {
    return RunCrashIngest();
  }
  if (role != nullptr && std::strcmp(role, "verify") == 0) {
    return RunCrashVerify();
  }
  return RunTables();
}
