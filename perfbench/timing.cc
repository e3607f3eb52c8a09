#include "timing.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace perfbench {

namespace {

using namespace slot;

// Written only by its owning thread (relaxed load + store, no read-modify-
// write); read by the merge. Cache-line aligned so two threads' blocks never
// share a line.
struct alignas(64) Block {
  std::atomic<int64_t> slots[kSlots] = {};
  bool main = false;
};

struct BlockRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<Block>> blocks;
  std::thread::id main_id;
};

// Leaked on purpose: pool threads may still hold their block pointer while
// static destructors run at exit.
BlockRegistry& Registry() {
  static BlockRegistry* registry = new BlockRegistry;
  return *registry;
}

thread_local Block* tl_block = nullptr;

Block& Local() {
  if (tl_block == nullptr) {
    auto block = std::make_unique<Block>();
    BlockRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    block->main = std::this_thread::get_id() == reg.main_id;
    tl_block = block.get();
    reg.blocks.push_back(std::move(block));
  }
  return *tl_block;
}

inline void Add(Block& b, size_t slot, int64_t delta) {
  std::atomic<int64_t>& a = b.slots[slot];
  a.store(a.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

inline void Set(Block& b, size_t slot, int64_t value) {
  b.slots[slot].store(value, std::memory_order_relaxed);
}

std::atomic<bool> g_file_timing{false};

bool IsSpan(size_t s) { return s == kChangelogFirst || s == kChangelogLast; }

// First/last stamps merge as min/max over the blocks that have one.
void FoldSpan(LayerTotals& t, int64_t first, int64_t last) {
  if (first == 0) return;
  int64_t& t_first = t.v[kChangelogFirst];
  if (t_first == 0 || first < t_first) t_first = first;
  t.v[kChangelogLast] = std::max(t.v[kChangelogLast], last);
}

void MergeInto(const Block& b, LayerTotals& t) {
  LayerTotals block;
  for (size_t s = 0; s < kSlots; ++s) block.v[s] = b.slots[s].load(std::memory_order_relaxed);
  t += block;
}

// Times one call on the owning thread's block.
class CallTimer {
 public:
  CallTimer() : t0_(sqs::MonotonicNanos()) {}
  int64_t start() const { return t0_; }
  int64_t Stop() {
    end_ = sqs::MonotonicNanos();
    return end_ - t0_;
  }
  int64_t end() const { return end_; }

 private:
  int64_t t0_;
  int64_t end_ = 0;
};

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void CountMeta(int64_t ns) {
  Block& b = Local();
  Add(b, kMetaCalls, 1);
  Add(b, kMetaNs, ns);
}

class TimingLogFile : public sqs::io::LogFile {
 public:
  explicit TimingLogFile(sqs::io::LogFilePtr inner) : inner_(std::move(inner)) {}

  sqs::Status Append(const void* data, size_t n) override {
    if (!g_file_timing.load(std::memory_order_relaxed)) return inner_->Append(data, n);
    CallTimer timer;
    sqs::Status st = inner_->Append(data, n);
    int64_t ns = timer.Stop();
    Block& b = Local();
    Add(b, kIoAppendCalls, 1);
    Add(b, kIoAppendBytes, static_cast<int64_t>(n));
    Add(b, kIoAppendNs, ns);
    return st;
  }
  sqs::Status Sync() override {
    if (!g_file_timing.load(std::memory_order_relaxed)) return inner_->Sync();
    CallTimer timer;
    sqs::Status st = inner_->Sync();
    int64_t ns = timer.Stop();
    Block& b = Local();
    Add(b, kIoSyncCalls, 1);
    Add(b, kIoSyncNs, ns);
    return st;
  }
  sqs::Status Truncate(int64_t size) override { return inner_->Truncate(size); }
  sqs::Status Close() override { return inner_->Close(); }
  int64_t size() const override { return inner_->size(); }

 private:
  sqs::io::LogFilePtr inner_;
};

}  // namespace

TopicClass ClassifyTopic(const std::string& topic) {
  if (topic == "Orders") return TopicClass::kInput;
  if (topic == "Products") return TopicClass::kBootstrap;
  if (topic == kCheckpointTopic) return TopicClass::kCheckpoint;
  if (EndsWith(topic, "-changelog")) return TopicClass::kChangelog;
  if (EndsWith(topic, "-output")) return TopicClass::kOutput;
  return TopicClass::kOther;
}

int64_t LayerTotals::broker_ns() const {
  int64_t ns = v[kMetaNs];
  for (size_t c = 0; c < kNumClasses; ++c) ns += v[kFetchNs + c] + v[kAppendNs + c];
  return ns;
}

LayerTotals LayerTotals::operator-(const LayerTotals& base) const {
  LayerTotals d = *this;
  for (size_t s = 0; s < kSlots; ++s) {
    if (!IsSpan(s)) d.v[s] -= base.v[s];
  }
  return d;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  for (size_t s = 0; s < kSlots; ++s) {
    if (!IsSpan(s)) v[s] += o.v[s];
  }
  FoldSpan(*this, o.v[kChangelogFirst], o.v[kChangelogLast]);
  return *this;
}

void MarkMainThread() {
  BlockRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.main_id = std::this_thread::get_id();
}

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snap;
  BlockRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& block : reg.blocks) MergeInto(*block, block->main ? snap.main : snap.workers);
  return snap;
}

void ResetChangelogSpan() {
  BlockRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& block : reg.blocks) {
    Set(*block, kChangelogFirst, 0);
    Set(*block, kChangelogLast, 0);
  }
}

void SetFileTiming(bool on) { g_file_timing.store(on, std::memory_order_relaxed); }

// --- TimingBroker ---

sqs::Result<int32_t> TimingBroker::NumPartitions(const std::string& topic) const {
  CallTimer timer;
  auto r = inner_->NumPartitions(topic);
  CountMeta(timer.Stop());
  return r;
}

sqs::Result<int64_t> TimingBroker::EndOffset(const sqs::StreamPartition& sp) const {
  CallTimer timer;
  auto r = inner_->EndOffset(sp);
  CountMeta(timer.Stop());
  return r;
}

sqs::Result<int64_t> TimingBroker::BeginOffset(const sqs::StreamPartition& sp) const {
  CallTimer timer;
  auto r = inner_->BeginOffset(sp);
  CountMeta(timer.Stop());
  return r;
}

sqs::Result<sqs::PartitionBacklog> TimingBroker::BacklogFrom(const sqs::StreamPartition& sp,
                                                             int64_t offset) const {
  CallTimer timer;
  auto r = inner_->BacklogFrom(sp, offset);
  CountMeta(timer.Stop());
  return r;
}

sqs::Result<int64_t> TimingBroker::Append(const sqs::StreamPartition& sp,
                                          sqs::Message message) {
  const auto c = static_cast<size_t>(ClassifyTopic(sp.topic));
  CallTimer timer;
  auto r = inner_->Append(sp, std::move(message));
  int64_t ns = timer.Stop();
  Block& b = Local();
  Add(b, kAppendCalls + c, 1);
  Add(b, kAppendNs + c, ns);
  return r;
}

sqs::Result<std::vector<sqs::IncomingMessage>> TimingBroker::Fetch(
    const sqs::StreamPartition& sp, int64_t offset, int32_t max_messages) const {
  const TopicClass cls = ClassifyTopic(sp.topic);
  const auto c = static_cast<size_t>(cls);
  CallTimer timer;
  auto r = inner_->Fetch(sp, offset, max_messages);
  int64_t ns = timer.Stop();
  Block& b = Local();
  Add(b, kFetchCalls + c, 1);
  Add(b, kFetchNs + c, ns);
  if (r.ok() && !r.value().empty()) {
    Add(b, kFetchNonempty + c, 1);
    Add(b, kFetchMsgs + c, static_cast<int64_t>(r.value().size()));
  }
  if (cls == TopicClass::kChangelog) {
    if (b.slots[kChangelogFirst].load(std::memory_order_relaxed) == 0) {
      Set(b, kChangelogFirst, timer.start());
    }
    Set(b, kChangelogLast, timer.end());
  }
  return r;
}

// --- TimingFileFactory ---

sqs::Result<sqs::io::LogFilePtr> TimingFileFactory::OpenAppend(const std::string& path) {
  SQS_ASSIGN_OR_RETURN(file, inner_->OpenAppend(path));
  return sqs::io::LogFilePtr(std::make_unique<TimingLogFile>(std::move(file)));
}

sqs::Result<sqs::Bytes> TimingFileFactory::ReadFile(const std::string& path) {
  if (!g_file_timing.load(std::memory_order_relaxed)) return inner_->ReadFile(path);
  CallTimer timer;
  auto r = inner_->ReadFile(path);
  int64_t ns = timer.Stop();
  Block& b = Local();
  Add(b, kIoReadNs, ns);
  if (r.ok()) Add(b, kIoReadBytes, static_cast<int64_t>(r.value().size()));
  return r;
}

}  // namespace perfbench
