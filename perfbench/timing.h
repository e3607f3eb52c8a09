// Timing decorators installed only by the traced invocation.
//
// TimingBroker delegates every Broker call to the real broker (the same
// shape as the engine's FaultInjectingBroker) and times the data and
// metadata paths, classing each call by topic. TimingFileFactory wraps the
// durable log's io::FileFactory and times appends, syncs and whole-file
// reads. Both record into per-thread counter blocks that only their own
// thread writes, so timing adds no shared cache line to the hot path; the
// blocks are merged when the benchmark reads them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "io/file.h"
#include "log/broker.h"

namespace perfbench {

enum class TopicClass { kInput, kBootstrap, kOutput, kChangelog, kCheckpoint, kOther };
inline constexpr size_t kNumClasses = 6;

// Classes topics by the names the benchmark's jobs use.
TopicClass ClassifyTopic(const std::string& topic);
inline constexpr const char* kCheckpointTopic = "perfbench-checkpoints";

// Slot layout of LayerTotals and of the per-thread counter blocks it is
// merged from. The first six ranges hold one slot per TopicClass.
namespace slot {
inline constexpr size_t kFetchCalls = 0;
inline constexpr size_t kFetchNonempty = kFetchCalls + kNumClasses;
inline constexpr size_t kFetchMsgs = kFetchNonempty + kNumClasses;
inline constexpr size_t kFetchNs = kFetchMsgs + kNumClasses;
inline constexpr size_t kAppendCalls = kFetchNs + kNumClasses;
inline constexpr size_t kAppendNs = kAppendCalls + kNumClasses;
inline constexpr size_t kMetaCalls = kAppendNs + kNumClasses;  // EndOffset / BeginOffset /
inline constexpr size_t kMetaNs = kMetaCalls + 1;              // BacklogFrom / NumPartitions
inline constexpr size_t kIoAppendCalls = kMetaNs + 1;
inline constexpr size_t kIoAppendBytes = kIoAppendCalls + 1;
inline constexpr size_t kIoAppendNs = kIoAppendBytes + 1;
inline constexpr size_t kIoSyncCalls = kIoAppendNs + 1;
inline constexpr size_t kIoSyncNs = kIoSyncCalls + 1;
inline constexpr size_t kIoReadBytes = kIoSyncNs + 1;
inline constexpr size_t kIoReadNs = kIoReadBytes + 1;
// First and last changelog fetch (monotonic ns; 0 = none): the span of the
// store restores a resubmitted job runs. Merged as min/max, not summed.
inline constexpr size_t kChangelogFirst = kIoReadNs + 1;
inline constexpr size_t kChangelogLast = kChangelogFirst + 1;
inline constexpr size_t kSlots = kChangelogLast + 1;
}  // namespace slot

struct LayerTotals {
  std::array<int64_t, slot::kSlots> v{};

  int64_t operator[](size_t s) const { return v[s]; }
  // A per-class slot, e.g. of(slot::kFetchMsgs, TopicClass::kInput).
  int64_t of(size_t base, TopicClass c) const { return v[base + static_cast<size_t>(c)]; }
  int64_t broker_ns() const;  // every timed broker call
  // The changelog-fetch span keeps this snapshot's stamps: it is a pair of
  // points in time, not a sum (ResetChangelogSpan starts a new span).
  LayerTotals operator-(const LayerTotals& base) const;
  LayerTotals& operator+=(const LayerTotals& o);
};

struct CounterSnapshot {
  LayerTotals main;     // the benchmark's own thread
  LayerTotals workers;  // every other thread (executor pool workers)
  LayerTotals all() const {
    LayerTotals t = main;
    t += workers;
    return t;
  }
  CounterSnapshot operator-(const CounterSnapshot& base) const {
    return {main - base.main, workers - base.workers};
  }
};

// Call once, from the thread that runs the benchmark.
void MarkMainThread();
// Merged counters of every thread so far. Exact when no other thread is
// inside a timed call (the executor joins its pool before returning).
CounterSnapshot SnapshotCounters();
// Clears every block's changelog-fetch span. Same exactness rule.
void ResetChangelogSpan();
// Turns the file decorator's timing on and off (the broker decorator is
// switched by installing or bypassing it).
void SetFileTiming(bool on);

class TimingBroker : public sqs::Broker {
 public:
  explicit TimingBroker(sqs::BrokerPtr inner) : inner_(std::move(inner)) {}

  void SetFetchLatencyNanos(int64_t nanos) override { inner_->SetFetchLatencyNanos(nanos); }
  int64_t fetch_latency_nanos() const override { return inner_->fetch_latency_nanos(); }
  void SetFetchLatencyModel(LatencyModel m) override { inner_->SetFetchLatencyModel(m); }
  sqs::Status CreateTopic(const std::string& name, sqs::TopicConfig config) override {
    return inner_->CreateTopic(name, std::move(config));
  }
  bool HasTopic(const std::string& name) const override { return inner_->HasTopic(name); }
  sqs::Result<int32_t> NumPartitions(const std::string& topic) const override;
  std::vector<std::string> Topics() const override { return inner_->Topics(); }
  sqs::Result<sqs::ProducerIdentity> RegisterProducer(const std::string& name) override {
    return inner_->RegisterProducer(name);
  }
  int64_t dups_dropped() const override { return inner_->dups_dropped(); }
  int64_t fenced_appends() const override { return inner_->fenced_appends(); }
  sqs::Result<int64_t> Append(const sqs::StreamPartition& sp, sqs::Message message) override;
  sqs::Result<std::vector<sqs::IncomingMessage>> Fetch(const sqs::StreamPartition& sp,
                                                       int64_t offset,
                                                       int32_t max_messages) const override;
  sqs::Result<int64_t> EndOffset(const sqs::StreamPartition& sp) const override;
  sqs::Result<int64_t> BeginOffset(const sqs::StreamPartition& sp) const override;
  sqs::Status EnforceRetention(const std::string& topic) override {
    return inner_->EnforceRetention(topic);
  }
  sqs::Status Compact(const std::string& topic) override { return inner_->Compact(topic); }
  sqs::Result<sqs::PartitionBacklog> BacklogFrom(const sqs::StreamPartition& sp,
                                                 int64_t offset) const override;
  sqs::Result<int64_t> TopicSize(const std::string& topic) const override {
    return inner_->TopicSize(topic);
  }
  sqs::Status DeleteTopic(const std::string& name) override { return inner_->DeleteTopic(name); }
  sqs::Status EnableDurability(sqs::DurableLogOptions options) override {
    return inner_->EnableDurability(std::move(options));
  }
  sqs::Status SyncDurableLog() override { return inner_->SyncDurableLog(); }
  bool durable() const override { return inner_->durable(); }

 private:
  sqs::BrokerPtr inner_;
};

class TimingFileFactory : public sqs::io::FileFactory {
 public:
  explicit TimingFileFactory(sqs::io::FileFactoryPtr inner) : inner_(std::move(inner)) {}

  sqs::Result<sqs::io::LogFilePtr> OpenAppend(const std::string& path) override;
  sqs::Result<sqs::Bytes> ReadFile(const std::string& path) override;
  sqs::Status CreateDirs(const std::string& path) override { return inner_->CreateDirs(path); }
  sqs::Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return inner_->ListDir(path);
  }
  sqs::Result<std::vector<std::string>> ListSubdirs(const std::string& path) override {
    return inner_->ListSubdirs(path);
  }
  sqs::Status RemoveFile(const std::string& path) override { return inner_->RemoveFile(path); }
  sqs::Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  sqs::Status RemoveAllUnder(const std::string& path) override {
    return inner_->RemoveAllUnder(path);
  }
  bool Exists(const std::string& path) override { return inner_->Exists(path); }
  sqs::Status SyncDir(const std::string& path) override { return inner_->SyncDir(path); }

 private:
  sqs::io::FileFactoryPtr inner_;
};

}  // namespace perfbench
