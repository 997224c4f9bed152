#include "storage/durable_log.h"

#include <utility>

#include "obs/metrics.h"
#include "storage/log_format.h"

namespace tinprov::storage {

DurableLog::DurableLog(Env* env, std::string dir, uint64_t start_prefix,
                       uint64_t start_seq, DurableLogOptions options)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      snapshots_(env, dir_),
      prefix_(start_prefix),
      next_seq_(start_seq) {}

StatusOr<std::unique_ptr<DurableLog>> DurableLog::Open(
    Env* env, const std::string& dir, uint64_t start_prefix,
    uint64_t start_seq, DurableLogOptions options) {
  if (options.rotate_bytes == 0) options.rotate_bytes = 1;
  Status status = env->CreateDir(dir);
  if (!status.ok()) return status;
  // Before the first append, drop what lies past start_prefix: the
  // segments a crashed writer left beyond the trusted log's break (the
  // resumed segment could never line up behind them) and the snapshots
  // cut from that lost history.
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    uint64_t base = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    const std::string path = JoinPath(dir, name);
    auto intact = ReadSegmentBase(env, path, &base);
    if (!intact.ok()) return intact.status();
    if (*intact && base > start_prefix) {
      status = env->DeleteFile(path);
      if (!status.ok()) return status;
    }
  }
  std::unique_ptr<DurableLog> log(
      new DurableLog(env, dir, start_prefix, start_seq, options));
  status = log->snapshots_.Sweep(start_prefix);
  if (!status.ok()) return status;
  TINPROV_GAUGE_SET("storage.degraded", 0);
  TINPROV_GAUGE_SET("storage.durable_prefix", start_prefix);
  return log;
}

DurableLog::~DurableLog() { (void)Seal(); }

Status DurableLog::OnFailure(Status status) {
  TINPROV_COUNTER_ADD("storage.failures", 1);
  if (options_.failure_policy == FailurePolicy::kFailStop) return status;
  // Degrade: latch, drop the writer (its fd may be poisoned), and keep
  // the pipeline alive. The health check, not a crash, reports this.
  degraded_ = true;
  active_.reset();
  TINPROV_GAUGE_SET("storage.degraded", 1);
  return Status::Ok();
}

Status DurableLog::EnsureSegment() {
  if (active_ != nullptr) return Status::Ok();
  auto writer = SegmentWriter::Open(
      env_, JoinPath(dir_, SegmentFileName(next_seq_)), prefix_);
  if (!writer.ok()) return writer.status();
  ++next_seq_;
  active_ = *std::move(writer);
  return Status::Ok();
}

Status DurableLog::Append(const Interaction* batch, size_t count) {
  if (count == 0) return Status::Ok();
  // A fresh segment must open BEFORE the global count advances: its
  // base_prefix is the number of interactions already logged, which is
  // what recovery's continuity check compares against.
  Status status = degraded_ ? Status::Ok() : EnsureSegment();
  if (status.ok() && !degraded_) status = active_->Append(batch, count);
  if (status.ok() && !degraded_ && options_.sync_each_append) {
    status = active_->Sync();
  }
  // The global count advances even while degraded or failing: it tracks
  // what the pipeline applied, so snapshots written after recovery from
  // degradation (next restart) line up with the in-memory state.
  prefix_ += count;
  TINPROV_GAUGE_SET("storage.durable_prefix", prefix_);
  if (degraded_) return Status::Ok();
  if (!status.ok()) return OnFailure(status);
  if (active_->bytes_written() >= options_.rotate_bytes) {
    status = active_->Seal();
    active_.reset();
    if (!status.ok()) return OnFailure(status);
  }
  return Status::Ok();
}

Status DurableLog::Sync() {
  if (degraded_ || active_ == nullptr) return Status::Ok();
  const Status status = active_->Sync();
  if (!status.ok()) return OnFailure(status);
  return Status::Ok();
}

Status DurableLog::WriteSnapshot(uint64_t prefix, Timestamp watermark,
                                 const std::vector<uint8_t>& state) {
  if (degraded_) return Status::Ok();
  // Log first: a snapshot at prefix P is only usable when the log's
  // trusted length reaches P, so P's bytes must hit the disk before the
  // snapshot becomes visible.
  Status status = Sync();
  if (!status.ok() || degraded_) return status;
  status = snapshots_.Write(prefix, watermark, state);
  if (!status.ok()) return OnFailure(status);
  return Status::Ok();
}

Status DurableLog::Seal() {
  if (degraded_ || active_ == nullptr) return Status::Ok();
  const Status status = active_->Seal();
  active_.reset();
  if (!status.ok()) return OnFailure(status);
  return Status::Ok();
}

}  // namespace tinprov::storage
