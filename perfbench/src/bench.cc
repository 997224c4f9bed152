#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "util/cpu.h"
#include "util/memory.h"
#include "util/random.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

bool CheckThreadBudget(const char* what, size_t threads,
                       const Settings& settings) {
  const size_t budget = settings.threads == 0 ? Nproc() : settings.threads;
  if (budget > Nproc() || threads > budget) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: it runs %zu threads, the budget is "
                 "%zu (nproc = %zu)\n",
                 what, threads, budget, Nproc());
    return false;
  }
  return true;
}

size_t CatchupWorkers(const Settings& settings) {
  const size_t budget = settings.threads == 0 ? Nproc() : settings.threads;
  return budget > 1 ? budget - 1 : 1;
}

// --- Inputs ------------------------------------------------------------------

Input MakeInput(tinprov::DatasetKind kind, double scale, uint64_t seed,
                uint64_t draw) {
  Input input;
  input.preset = std::string(tinprov::DatasetName(kind));
  input.scale = scale;
  tinprov::GeneratorConfig config = tinprov::PresetConfig(kind, scale);
  tinprov::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                   draw * 0xd1b54a32d192ed03ULL + config.seed);
  config.seed = rng.Next();
  const int64_t start = NowNs();
  auto tin = tinprov::Generate(config);
  input.gen_seconds = Seconds(NowNs() - start);
  if (!tin.ok()) {
    std::fprintf(stderr, "perfbench: generating %s failed: %s\n",
                 input.preset.c_str(), tin.status().ToString().c_str());
    std::exit(2);
  }
  input.tin = *std::move(tin);
  return input;
}

std::string Input::Label() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " x%g", scale);
  return preset + buf;
}

std::vector<Query> MakeQueryMix(const Tin& tin, size_t count, uint64_t seed) {
  tinprov::Rng rng(seed ^ 0x51ed2701a3c4b5d7ULL);
  const auto& log = tin.interactions();
  std::vector<Query> mix(count);
  for (Query& query : mix) {
    query.v = log[rng.Next() % log.size()].dst;
    query.top = rng.Next() % 4 == 0;
  }
  return mix;
}

std::vector<Timestamp> MakeTimes(const Tin& tin, size_t count, uint64_t seed,
                                 size_t lo, size_t hi) {
  tinprov::Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
  const auto& log = tin.interactions();
  std::vector<Timestamp> times(count);
  for (Timestamp& t : times) {
    const size_t i = lo + rng.Next() % (hi - lo - 1);
    t = 0.5 * (log[i].t + log[i + 1].t);
  }
  return times;
}

size_t PrefixAt(const Tin& tin, Timestamp t) {
  const auto& log = tin.interactions();
  return static_cast<size_t>(
      std::upper_bound(log.begin(), log.end(), t,
                       [](Timestamp value, const Interaction& interaction) {
                         return value < interaction.t;
                       }) -
      log.begin());
}

Buffer TopOf(Buffer buffer, size_t k) {
  auto order = [](const tinprov::ProvPair& a, const tinprov::ProvPair& b) {
    if (a.quantity != b.quantity) return a.quantity > b.quantity;
    return a.origin < b.origin;
  };
  auto& entries = buffer.entries;
  if (k < entries.size()) {
    std::partial_sort(entries.begin(), entries.begin() + k, entries.end(),
                      order);
    entries.resize(k);
  } else {
    std::sort(entries.begin(), entries.end(), order);
  }
  return buffer;
}

// --- Operations, checks ------------------------------------------------------

void Ledger::Fail(const std::string& what, uint64_t n) {
  failed_ += n;
  std::lock_guard<std::mutex> lock(mu_);
  if (reported_ < 10) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  } else if (reported_ == 10) {
    std::fprintf(stderr, "perfbench: further failures not shown\n");
  }
  ++reported_;
}

uint64_t Digest(const Buffer& buffer) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  auto bits = [](double value) {
    uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(word));
    return word;
  };
  mix(bits(buffer.total));
  mix(buffer.entries.size());
  for (const tinprov::ProvPair& entry : buffer.entries) {
    mix(entry.origin);
    mix(bits(entry.quantity));
  }
  return hash;
}

namespace {
std::atomic<bool> corrupt_next{false};
}  // namespace

void CorruptNextSample() { corrupt_next.store(true); }

Sample MakeSample(size_t prefix, VertexId v, bool top, bool at_time,
                  Timestamp t, Buffer buffer) {
  if (corrupt_next.exchange(false)) {
    if (buffer.entries.empty()) {
      buffer.total += 1.0;
    } else {
      buffer.entries.front().quantity = -buffer.entries.front().quantity - 1.0;
    }
  }
  return {prefix, v, top, at_time, t, Digest(buffer)};
}

namespace {

/// Sum of buffers equals total generated, within a relative 1e-9: the
/// conservation-of-flow invariant every tracker keeps.
bool Conserves(double buffered, double generated, double* relative_error) {
  const double error =
      std::fabs(buffered - generated) / std::max(1.0, std::fabs(generated));
  if (relative_error != nullptr) *relative_error = error;
  return error <= 1e-9;
}

std::string ErrorText(double error) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.3g", error);
  return text;
}

}  // namespace

std::unique_ptr<Tracker> VerifySamples(const TrackerSpec& spec,
                                       const Tin& tin, size_t end,
                                       std::vector<Sample> samples,
                                       Ledger* ledger) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.prefix < b.prefix;
                   });
  auto reference =
      tinprov::TrackerRegistry::Global().Create(spec, tin.Stats());
  if (!reference.ok()) {
    ledger->Fail("reference tracker: " + reference.status().ToString(),
                 samples.size() + 1);
    return nullptr;
  }
  Tracker& tracker = **reference;
  const auto& log = tin.interactions();
  size_t applied = 0;
  auto replay_to = [&](size_t prefix) {
    bool ok = true;
    while (applied < prefix) ok = tracker.Process(log[applied++]).ok() && ok;
    return ok;
  };
  for (const Sample& sample : samples) {
    ledger->Attempt();
    if (sample.prefix > end) {
      ledger->Fail("sample prefix beyond the ingested log");
      continue;
    }
    if (!replay_to(sample.prefix)) {
      ledger->Fail("reference replay failed");
      continue;
    }
    Buffer expected = tracker.Provenance(sample.v);
    if (sample.top) expected = TopOf(std::move(expected), kTopK);
    if (Digest(expected) != sample.digest) {
      ledger->Fail("answer for vertex " + std::to_string(sample.v) +
                   " at prefix " + std::to_string(sample.prefix) +
                   " differs from a stop-the-world replay");
    }
  }
  ledger->Check(replay_to(end), "reference replay");
  return *std::move(reference);
}

void CheckConservation(const Tracker* tracker, const char* what,
                       Ledger* ledger) {
  double buffered = 0.0;
  if (tracker != nullptr) {
    for (VertexId v = 0; v < tracker->num_vertices(); ++v) {
      buffered += tracker->BufferTotal(v);
    }
  }
  double error = 0.0;
  ledger->Check(
      tracker != nullptr &&
          Conserves(buffered, tracker->total_generated(), &error),
      std::string("conservation of flow: ") + what + " (relative error " +
          ErrorText(error) + ")");
}

void CheckServedConservation(double served_total, const Tracker* reference,
                             const char* what, Ledger* ledger) {
  double error = 0.0;
  ledger->Check(
      reference != nullptr &&
          Conserves(served_total, reference->total_generated(), &error),
      std::string("conservation of flow, served: ") + what +
          " (relative error " + ErrorText(error) + ")");
}

// --- Statistics --------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double OverallRate(const std::vector<double>& pass_rates) {
  double seconds_per_item = 0.0;
  for (double rate : pass_rates) seconds_per_item += 1.0 / rate;
  return pass_rates.empty()
             ? 0.0
             : static_cast<double>(pass_rates.size()) / seconds_per_item;
}

size_t Beyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// --- Tracing -----------------------------------------------------------------

namespace {
thread_local std::vector<uint64_t> open_spans;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

std::map<std::string, Tracer::Layer> Tracer::Layers() const {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records = records_;
  }
  // Children by parent, clipped to the parent's interval; overlapping
  // children (spans from several threads) are merged before subtracting.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  std::unordered_map<uint64_t, const Record*> by_id;
  for (const Record& record : records) by_id[record.id] = &record;
  for (const Record& record : records) {
    if (record.parent != 0) {
      children[record.parent].push_back({record.start, record.end});
    }
  }
  std::map<std::string, Layer> layers;
  for (const Record& record : records) {
    Layer& layer = layers[record.name];
    const int64_t duration = record.end - record.start;
    int64_t covered = 0;
    auto it = children.find(record.id);
    if (it != children.end()) {
      auto& spans = it->second;
      std::sort(spans.begin(), spans.end());
      int64_t cursor = record.start;
      for (const auto& [start, end] : spans) {
        const int64_t from = std::max(start, cursor);
        const int64_t to = std::min(end, record.end);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    layer.count += 1;
    layer.total_s += Seconds(duration);
    layer.self_s += Seconds(duration - covered);
  }
  return layers;
}

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.NextId();
  parent_ = open_spans.empty() ? 0 : open_spans.back();
  open_spans.push_back(id_);
  start_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = NowNs();
  open_spans.pop_back();
  Tracer::Get().Add({name_, id_, parent_, start_, end});
}

// --- Streams -----------------------------------------------------------------

TimedStream::TimedStream(const Tin& tin, size_t end, bool record_pulls)
    : tin_(&tin), end_(end) {
  if (record_pulls) pulled_.resize(end);
}

bool TimedStream::Next(Interaction* out) {
  if (cursor_ >= end_) return false;
  if (!pulled_.empty()) pulled_[cursor_] = NowNs();
  *out = tin_->interactions()[cursor_++];
  return true;
}

tinprov::DatasetStats TimedStream::Stats() const {
  return {tin_->num_vertices(), end_};
}

// --- Output ------------------------------------------------------------------

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Config(const std::string& key, const std::string& value) {
  config_.push_back({key, JsonString(value)});
}

void Report::Config(const std::string& key, double value) {
  config_.push_back({key, JsonNumber(value)});
}

int Report::Print(const Ledger& ledger, bool checks_ok) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::string config = "{\"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) config += ", ";
    config += JsonString(config_[i].first) + ": " + config_[i].second;
  }
  std::printf("%s}}\n", config.c_str());

  const bool correct = checks_ok && ledger.failed() == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void RecordHost(const Settings& settings, Report* report) {
  report->Config("workload", settings.workload);
  report->Config("seed", static_cast<double>(settings.seed));
  report->Config("seconds", settings.seconds);
  report->Config("trace", settings.trace ? 1.0 : 0.0);
  report->Config("short", settings.short_mode ? 1.0 : 0.0);
  report->Config("nproc", static_cast<double>(Nproc()));
  report->Config("simd_level",
                 tinprov::cpu::SimdLevelName(tinprov::cpu::ActiveSimdLevel()));
  report->Config("compiler", PERFBENCH_COMPILER);
  report->Config("build_type", PERFBENCH_BUILD_TYPE);
}

void TrimHeap() { malloc_trim(0); }

bool ResetPeakRss() {
  TrimHeap();
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

double PeakRssMb() {
  return static_cast<double>(tinprov::PeakRssBytes()) * 1e-6;
}

void RemoveTree(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) bytes += entry.file_size(error);
  }
  return bytes;
}

}  // namespace perfbench
