// Drain benchmark: loads a seeded corpus into the log through the engine's
// Producer, submits a streaming SQL query, and times the threaded executor
// draining the corpus. Every round also restarts the job, checks that the
// resumed job has nothing left to do, and checks the output against a
// reference computed from the corpus. See README.md.
//
//   perfbench --workload <filter_project|join_enrich|window_durable>
//             --seed <n> --seconds <s> --trace <0|1> --log-dir <dir>
//   perfbench --self-test --log-dir <dir>
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// installs the timing decorators and reports the per-layer metrics.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/executor.h"
#include "corpus.h"
#include "layers.h"
#include "log/producer.h"
#include "timing.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

// Taken during static initialisation, before main: the start of setup_s.
const int64_t g_process_start_ns = sqs::MonotonicNanos();

constexpr int kContainers = 8;
constexpr int64_t kCommitEveryMessages = 5000;  // per task

struct Args {
  std::optional<Workload> workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
  int threads = 0;          // executor threads; 0 = nproc
  int64_t paced_rate = 0;   // --paced-latency <msgs/s>
  std::string log_dir;
};

void Require(const sqs::Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.ToString());
}

template <typename T>
T Require(sqs::Result<T> r, const std::string& what) {
  if (!r.ok()) throw std::runtime_error(what + ": " + r.status().ToString());
  return std::move(r).value();
}

int ExecutorThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// The process's peak resident set so far (ru_maxrss is in KiB on Linux).
double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Σ over the job's containers of `<job>.container<N>.<leaf>` counters and
// timers, plus the task-scoped store changelog_writes counters.
struct TaskTotals {
  int64_t processed = 0;
  int64_t busy_ns = 0;
  int64_t commits = 0;
  int64_t checkpoint_writes = 0;
  int64_t changelog_writes = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
};

bool IsContainerMetric(const std::string& name, const std::string& leaf) {
  if (name.size() <= leaf.size() + 1 ||
      name.compare(name.size() - leaf.size(), leaf.size(), leaf) != 0 ||
      name[name.size() - leaf.size() - 1] != '.') {
    return false;
  }
  const std::string scope = name.substr(0, name.size() - leaf.size() - 1);
  const size_t dot = scope.rfind('.');
  const std::string last = dot == std::string::npos ? scope : scope.substr(dot + 1);
  return last.size() > 9 && last.compare(0, 9, "container") == 0 &&
         std::all_of(last.begin() + 9, last.end(), [](char ch) { return ch >= '0' && ch <= '9'; });
}

TaskTotals SumTaskMetrics(const sqs::MetricsSnapshot& snap) {
  TaskTotals t;
  const std::string kChangelogWrites = ".changelog_writes";
  for (const auto& [name, v] : snap.counters) {
    if (IsContainerMetric(name, "processed")) t.processed += v;
    if (IsContainerMetric(name, "commits")) t.commits += v;
    if (IsContainerMetric(name, "checkpoint_writes")) t.checkpoint_writes += v;
    if (IsContainerMetric(name, "bytes_in")) t.bytes_in += v;
    if (IsContainerMetric(name, "bytes_out")) t.bytes_out += v;
    if (name.size() > kChangelogWrites.size() &&
        name.compare(name.size() - kChangelogWrites.size(), kChangelogWrites.size(),
                     kChangelogWrites) == 0) {
      t.changelog_writes += v;
    }
  }
  for (const auto& [name, v] : snap.timers) {
    if (IsContainerMetric(name, "busy_ns")) t.busy_ns += v;
  }
  return t;
}

std::map<std::string, int64_t> EndOffsets(const sqs::Broker& broker) {
  std::map<std::string, int64_t> ends;
  for (const std::string& topic : broker.Topics()) {
    const int32_t parts = Require(broker.NumPartitions(topic), "partitions of " + topic);
    for (int32_t p = 0; p < parts; ++p) {
      ends[topic + "[" + std::to_string(p) + "]"] =
          Require(broker.EndOffset({topic, p}), "end offset of " + topic);
    }
  }
  return ends;
}

int64_t TopicMessages(const sqs::Broker& broker, const std::string& topic) {
  const int32_t parts = Require(broker.NumPartitions(topic), "partitions of " + topic);
  int64_t n = 0;
  for (int32_t p = 0; p < parts; ++p) {
    n += Require(broker.EndOffset({topic, p}), "end offset") -
         Require(broker.BeginOffset({topic, p}), "begin offset");
  }
  return n;
}

bool IsChangelog(const std::string& topic) { return ClassifyTopic(topic) == TopicClass::kChangelog; }

struct RoundResult {
  bool traced = false;
  int64_t drain_ns = 0;
  int64_t recovery_ns = 0;           // per restart, averaged over the round's restarts
  int64_t enable_durability_ns = 0;  // cold restart only
  double peak_rss_mib = 0;
  TaskTotals task;
  CounterSnapshot drain;    // decorator counters over drain + stop
  CounterSnapshot restart;  // decorator counters over the restart
  OutputCheck output;
  Conservation conservation;
  std::vector<OutRow> rows;  // kept for the self-test only
};

// One workload's environment, corpus and job across the rounds of a run.
class Bench {
 public:
  Bench(Workload w, const WorkloadSpec& spec, const Args& args)
      : workload_(w),
        spec_(spec),
        args_(args),
        threads_(args.threads > 0 ? std::min(args.threads, ExecutorThreads())
                                  : ExecutorThreads()) {
    defaults_.SetInt(sqs::cfg::kContainerCount, kContainers);
    defaults_.Set(sqs::cfg::kExecutorMode, "threaded");
    defaults_.SetInt(sqs::cfg::kExecutorThreads, threads_);
    defaults_.SetInt(sqs::cfg::kPollLatencyNanos, 0);
    defaults_.SetInt(sqs::cfg::kCommitEveryMessages, kCommitEveryMessages);
    defaults_.Set(sqs::cfg::kCheckpointTopic, kCheckpointTopic);
    defaults_.Set(sqs::cfg::kTaskDelivery, spec.exactly_once ? "exactly-once" : "at-least-once");
    if (spec.durable) {
      defaults_.Set(sqs::cfg::kLogDurable, "true");
      defaults_.Set(sqs::cfg::kLogDir, args.log_dir);
      defaults_.Set(sqs::cfg::kLogFsync, "interval");
    }
    if (args.trace) {
      files_ = std::make_shared<TimingFileFactory>(sqs::io::PosixFileFactory::Instance());
    }
  }

  int threads() const { return threads_; }
  // The compact corpus and the reference output are built on first use,
  // after set-up and after the first round has read peak RSS, so neither
  // setup_s nor peak_rss_mb counts the checker's own data.
  const Corpus& corpus() {
    if (!corpus_) corpus_ = MakeCorpus(spec_, args_.seed);
    return *corpus_;
  }
  const Expected& expected() {
    if (!expected_) expected_ = ComputeExpected(workload_, corpus());
    return *expected_;
  }
  const sqs::core::EnvironmentPtr& env() const { return env_; }
  int64_t corpus_messages() const {
    return spec_.orders + (spec_.load_products ? spec_.products : 0);
  }
  int64_t load_ns() const { return load_ns_; }
  int64_t setup_submit_ns() const { return setup_submit_ns_; }

  // Opens a fresh environment; loads nothing.
  void Prepare() { NewEnvironment(args_.trace); }

  // Cold set-up up to a ready job; returns setup_s.
  double Setup() {
    const int64_t t_main = sqs::MonotonicNanos();
    Prepare();
    const int64_t t_env = sqs::MonotonicNanos();
    const CounterSnapshot before = SnapshotCounters();
    const int64_t sent = Require(LoadCorpus(*env_, spec_, args_.seed), "corpus load");
    const LayerTotals load = (SnapshotCounters() - before).all();
    const int64_t t_load = sqs::MonotonicNanos();
    load_ns_ = sent > 0 ? (load.of(slot::kAppendNs, TopicClass::kInput) +
                           load.of(slot::kAppendNs, TopicClass::kBootstrap)) / sent
                        : 0;
    setup_submit_ns_ = Submit(args_.trace);
    const int64_t t_end = sqs::MonotonicNanos();
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    auto ms = [](int64_t ns) { return std::to_string(ns / 1'000'000); };
    auto cpu_ms = [](const timeval& tv) {
      return std::to_string(tv.tv_sec * 1000 + tv.tv_usec / 1000);
    };
    setup_parts_ = "start " + ms(t_main - g_process_start_ns) + " env " + ms(t_env - t_main) +
                   " load " + ms(t_load - t_env) + " submit " + ms(t_end - t_load) +
                   " (cpu user " + cpu_ms(usage.ru_utime) + " sys " + cpu_ms(usage.ru_stime) + ")";
    return static_cast<double>(t_end - g_process_start_ns) / 1e9;
  }
  const std::string& setup_parts() const { return setup_parts_; }

  // Creates an executor and submits the workload's query; returns the
  // Execute call's wall time. A traced round routes the job through the
  // timing decorators.
  int64_t Submit(bool traced) {
    traced_ = traced;
    env_->broker = traced ? std::static_pointer_cast<sqs::Broker>(timed_) : raw_;
    SetFileTiming(traced);
    executor_ = std::make_unique<sqs::core::QueryExecutor>(env_, defaults_);
    Require(executor_->startup_error(), "executor start");
    const int64_t t0 = sqs::MonotonicNanos();
    auto submitted = Require(executor_->Execute(spec_.sql), "submit");
    const int64_t ns = sqs::MonotonicNanos() - t0;
    job_index_ = submitted.job_index;
    output_topic_ = submitted.output_topic;
    return ns;
  }

  // Runs the submitted job until quiescent; returns messages processed.
  int64_t Drive() { return Require(executor_->RunJobsUntilQuiescent(), "drive"); }

  sqs::HistogramStats E2eLatency() const {
    const sqs::MetricsSnapshot snap = executor_->job(job_index_)->metrics_registry()->Snapshot();
    auto it = snap.histograms.find("samzasql-query-0.e2e_latency_us");
    return it == snap.histograms.end() ? sqs::HistogramStats{} : it->second;
  }

  OutputCheck CheckOutputNow() {
    return CheckOutput(corpus(), expected(),
                       Require(ReadOutput(*raw_, *env_->registry, output_topic_), "read output"));
  }

  // Drains the corpus with the submitted job, restarts it, checks, and
  // removes the job's topics so the next Submit starts from scratch.
  RoundResult Round(bool keep_rows) {
    RoundResult r;
    r.traced = traced_;
    const CounterSnapshot c0 = SnapshotCounters();
    const int64_t t0 = sqs::MonotonicNanos();
    Require(executor_->RunJobsUntilQuiescent(), "drain");
    r.drain_ns = sqs::MonotonicNanos() - t0;
    sqs::core::QueryExecutor& ex = *executor_;
    Require(ex.job(job_index_)->Stop(), "stop");
    r.drain = SnapshotCounters() - c0;
    r.task = SumTaskMetrics(ex.job(job_index_)->metrics_registry()->Snapshot());

    Conservation& c = r.conservation;
    c.traced = traced_;
    c.corpus_messages = corpus_messages();
    c.task_processed = r.task.processed;
    const LayerTotals drain = r.drain.all();
    c.fetched_input = drain.of(slot::kFetchMsgs, TopicClass::kInput) +
                      drain.of(slot::kFetchMsgs, TopicClass::kBootstrap);
    c.checkpoint_appends = drain.of(slot::kAppendCalls, TopicClass::kCheckpoint);
    c.task_checkpoint_writes = r.task.checkpoint_writes;
    c.changelog_appends = drain.of(slot::kAppendCalls, TopicClass::kChangelog);
    c.task_changelog_writes = r.task.changelog_writes;
    c.worker_broker_ns = r.drain.workers.broker_ns();
    c.task_busy_ns = r.task.busy_ns;
    c.end_offsets_before = EndOffsets(*raw_);
    for (const std::string& topic : raw_->Topics()) {
      if (IsChangelog(topic)) c.changelog_written += TopicMessages(*raw_, topic);
    }
    const int64_t output_before = TopicMessages(*raw_, output_topic_);
    executor_.reset();

    // Restart: a cold one (new broker recovering the log directory) when the
    // log is durable, else a resubmission against the surviving broker. Both
    // end when the resubmitted job is ready. The round's restarts are timed
    // together as its one sample (see WorkloadSpec::restarts_per_round).
    const int restarts = spec_.restarts_per_round;
    int64_t restart_ns = 0;
    for (int k = 0; k < restarts; ++k) {
      ResetChangelogSpan();
      const CounterSnapshot r0 = SnapshotCounters();
      const int64_t restart_t0 = sqs::MonotonicNanos();
      if (spec_.durable) {
        env_.reset();
        timed_.reset();
        raw_.reset();
        r.enable_durability_ns = NewEnvironment(traced_);
      }
      Submit(traced_);
      restart_ns += sqs::MonotonicNanos() - restart_t0;
      if (k == 0) {
        r.restart = SnapshotCounters() - r0;
        c.end_offsets_after = EndOffsets(*raw_);
        c.restore_records = r.restart.all().of(slot::kFetchMsgs, TopicClass::kChangelog);
      }
      c.resumed_processed += Require(executor_->RunJobsUntilQuiescent(), "resumed drain");
      Require(executor_->job(job_index_)->Stop(), "stop resumed job");
      executor_.reset();
    }
    r.recovery_ns = restart_ns / restarts;
    c.resumed_rows = TopicMessages(*raw_, output_topic_) - output_before;
    r.peak_rss_mib = PeakRssMiB();

    std::vector<OutRow> rows = Require(ReadOutput(*raw_, *env_->registry, output_topic_),
                                       "read output");
    r.output = CheckOutput(corpus(), expected(), rows);
    if (keep_rows) r.rows = std::move(rows);
    for (const std::string& topic : raw_->Topics()) {
      if (topic == output_topic_ || topic == kCheckpointTopic || IsChangelog(topic)) {
        Require(raw_->DeleteTopic(topic), "delete " + topic);
      }
    }
    return r;
  }

 private:
  // Fresh environment with the paper's sources registered; with a durable
  // log, the log directory is opened (and recovered) first. Returns the
  // EnableDurability wall time.
  int64_t NewEnvironment(bool traced) {
    env_ = sqs::core::SamzaSqlEnvironment::Make();
    raw_ = env_->broker;
    if (args_.trace) timed_ = std::make_shared<TimingBroker>(raw_);
    int64_t enable_ns = 0;
    if (spec_.durable) {
      sqs::DurableLogOptions options;
      options.enabled = true;
      options.dir = args_.log_dir;
      options.fsync = sqs::FsyncPolicy::kInterval;
      options.factory = files_;
      SetFileTiming(traced);
      const int64_t t0 = sqs::MonotonicNanos();
      Require(raw_->EnableDurability(options), "enable durable log");
      enable_ns = sqs::MonotonicNanos() - t0;
    }
    env_->broker = traced ? std::static_pointer_cast<sqs::Broker>(timed_) : raw_;
    Require(sqs::workload::SetupPaperSources(*env_, kPartitions), "register sources");
    return enable_ns;
  }

  Workload workload_;
  WorkloadSpec spec_;
  Args args_;
  int threads_;
  sqs::Config defaults_;
  std::optional<Corpus> corpus_;
  std::optional<Expected> expected_;
  std::shared_ptr<TimingFileFactory> files_;
  sqs::core::EnvironmentPtr env_;
  sqs::BrokerPtr raw_;
  std::shared_ptr<TimingBroker> timed_;
  std::unique_ptr<sqs::core::QueryExecutor> executor_;
  bool traced_ = false;
  int job_index_ = -1;
  std::string output_topic_;
  int64_t load_ns_ = 0;
  int64_t setup_submit_ns_ = 0;
  std::string setup_parts_;  // set-up phases in ms, for stderr
};

// --- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Adds the per-layer metrics of one traced round.
void AddLayerMetrics(const RoundResult& r, const Bench& bench, std::vector<Metric>& m) {
  using namespace slot;
  const LayerTotals d = r.drain.all();
  const LayerTotals rs = r.restart.all();
  auto num = [](int64_t v) { return static_cast<double>(v); };
  auto input = [&d](size_t base) {  // input + bootstrap topics
    return d.of(base, TopicClass::kInput) + d.of(base, TopicClass::kBootstrap);
  };
  const double fetch_calls = num(input(kFetchCalls));
  m.push_back({"log.fetch.calls", fetch_calls, "count"});
  m.push_back({"log.fetch.msgs", num(input(kFetchMsgs)), "count"});
  m.push_back({"log.fetch.ns", num(input(kFetchNs)), "ns"});
  m.push_back({"log.fetch.useful_ratio",
               fetch_calls > 0 ? num(input(kFetchNonempty)) / fetch_calls : 0, "ratio"});
  for (auto [name, k] : {std::pair{"output", TopicClass::kOutput},
                         std::pair{"changelog", TopicClass::kChangelog},
                         std::pair{"checkpoint", TopicClass::kCheckpoint}}) {
    m.push_back({std::string("log.append.") + name + ".calls", num(d.of(kAppendCalls, k)), "count"});
    m.push_back({std::string("log.append.") + name + ".ns", num(d.of(kAppendNs, k)), "ns"});
  }
  m.push_back({"log.metadata.calls", num(d[kMetaCalls]), "count"});
  m.push_back({"log.metadata.ns", num(d[kMetaNs]), "ns"});
  m.push_back({"log.load.ns_per_msg", num(bench.load_ns()), "ns/msg"});
  m.push_back({"log.recovery.ns", num(r.enable_durability_ns), "ns"});
  m.push_back({"io.append.calls", num(d[kIoAppendCalls]), "count"});
  m.push_back({"io.append.bytes", num(d[kIoAppendBytes]), "bytes"});
  m.push_back({"io.append.ns", num(d[kIoAppendNs]), "ns"});
  m.push_back({"io.sync.calls", num(d[kIoSyncCalls]), "count"});
  m.push_back({"io.sync.ns", num(d[kIoSyncNs]), "ns"});
  m.push_back({"io.read.bytes", num(rs[kIoReadBytes]), "bytes"});
  m.push_back({"io.read.ns", num(rs[kIoReadNs]), "ns"});
  m.push_back({"task.busy_ns", num(r.task.busy_ns), "ns"});
  m.push_back({"task.processed", num(r.task.processed), "count"});
  m.push_back({"task.commits", num(r.task.commits), "count"});
  m.push_back({"task.checkpoint_writes", num(r.task.checkpoint_writes), "count"});
  m.push_back({"task.changelog_writes", num(r.task.changelog_writes), "count"});
  m.push_back({"task.bytes_in", num(r.task.bytes_in), "bytes"});
  m.push_back({"task.bytes_out", num(r.task.bytes_out), "bytes"});
  m.push_back({"core.drain_ns", num(r.drain_ns), "ns"});
  m.push_back({"core.parallel_efficiency",
               num(r.task.busy_ns) / (num(r.drain_ns) * bench.threads()), "ratio"});
  m.push_back({"core.submit_ns", num(bench.setup_submit_ns()), "ns"});
  m.push_back({"kv.restore.records", num(r.conservation.restore_records), "count"});
  m.push_back({"kv.restore.ns", num(rs[kChangelogLast] - rs[kChangelogFirst]), "ns"});
}

int RunWorkload(const Args& args) {
  const Workload w = *args.workload;
  Bench bench(w, SpecFor(w), args);
  const double setup_s = bench.Setup();
  std::vector<RoundResult> rounds;
  const int64_t measure_t0 = sqs::MonotonicNanos();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds) * 1'000'000'000;
  // The traced invocation alternates traced and untraced rounds (traced
  // first: set-up submitted through the decorators) and needs one of each.
  while (true) {
    if (!rounds.empty()) bench.Submit(args.trace && rounds.size() % 2 == 0);
    rounds.push_back(bench.Round(false));
    const bool enough = !args.trace || rounds.size() >= 2;
    if (enough && sqs::MonotonicNanos() - measure_t0 >= budget_ns) break;
  }

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += bench.corpus_messages();
    failed += std::min(r.output.failed(), bench.corpus_messages());
    if (r.output.failed() > 0) {
      std::fprintf(stderr, "perfbench: %" PRId64 " operations failed: %s\n", r.output.failed(),
                   r.output.first_problem.c_str());
    }
    for (const std::string& v : CheckConservation(r.conservation)) {
      correct = false;
      std::fprintf(stderr, "perfbench: conservation check failed: %s\n", v.c_str());
    }
  }

  const double messages = static_cast<double>(bench.corpus_messages());
  std::vector<double> tput_untraced, tput_traced, recovery;
  for (const RoundResult& r : rounds) {
    (r.traced ? tput_traced : tput_untraced).push_back(messages / (r.drain_ns / 1e9));
    recovery.push_back(r.recovery_ns / 1e9);
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"throughput_msgs_per_s", Median(tput_untraced), "msgs/s"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", rounds.front().peak_rss_mib, "MiB"});
    metrics.push_back({"recovery_s", Median(recovery), "s"});
  } else {
    const RoundResult* last_traced = nullptr;
    for (const RoundResult& r : rounds) {
      if (r.traced) last_traced = &r;
    }
    AddLayerMetrics(*last_traced, bench, metrics);
    const LayerPhase lp = Require(RunLayerPhase(SpecFor(w), bench.corpus(),
                                                bench.env()->catalog), "layer phase");
    metrics.push_back({"kv.get.ns_per_op", lp.kv_get_ns_per_op, "ns/op"});
    metrics.push_back({"kv.put.ns_per_op", lp.kv_put_ns_per_op, "ns/op"});
    metrics.push_back({"kv.range.ns_per_entry", lp.kv_range_ns_per_entry, "ns/entry"});
    metrics.push_back({"serde.decode_projected.ns_per_msg", lp.decode_projected_ns_per_msg, "ns/msg"});
    metrics.push_back({"serde.encode.ns_per_msg", lp.encode_ns_per_msg, "ns/msg"});
    metrics.push_back({"serde.decode_full.ns_per_msg", lp.decode_full_ns_per_msg, "ns/msg"});
    metrics.push_back({"serde.state_decode.ns_per_row", lp.state_decode_ns_per_row, "ns/row"});
    metrics.push_back({"common.crc32c.ns_per_msg", lp.crc32c_ns_per_msg, "ns/msg"});
    metrics.push_back({"sql.fused_kernel.ns_per_msg", lp.fused_kernel_ns_per_msg, "ns/msg"});
    metrics.push_back({"sql.plan.ns", lp.plan_ns, "ns"});
    metrics.push_back({"trace.overhead_ratio", Median(tput_untraced) / Median(tput_traced), "ratio"});
  }
  // Per-round figures and the set-up phases on stderr ("t" marks traced
  // rounds).
  std::string drains, restarts;
  for (const RoundResult& r : rounds) {
    drains.append(r.traced ? " t" : " ").append(std::to_string(r.drain_ns / 1'000'000));
    restarts.append(" ").append(std::to_string(r.recovery_ns / 1000));
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%" PRIu64 " rounds=%zu threads=%d drain_ms=%s restart_us=%s "
               "setup_ms: %s\n",
               WorkloadName(w), args.seed, rounds.size(), bench.threads(), drains.c_str(),
               restarts.c_str(), bench.setup_parts().c_str());
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

// --- self-test: every check rejects a corrupted copy of a real run ---

int RunSelfTest(const Args& base) {
  int cases = 0, rejected = 0;
  auto expect = [&cases, &rejected](const std::string& workload, const std::string& name,
                                    bool should_reject, bool did_reject) {
    ++cases;
    const bool ok = should_reject == did_reject;
    if (ok) ++rejected;
    std::printf("self-test %-15s %-28s %s\n", workload.c_str(), name.c_str(),
                ok ? (should_reject ? "rejected" : "accepted") : "WRONG");
  };
  for (Workload w : {Workload::kFilterProject, Workload::kJoinEnrich, Workload::kWindowDurable}) {
    Args args = base;
    args.workload = w;
    args.trace = true;
    WorkloadSpec spec = SpecFor(w);
    spec.orders = 20'000;
    spec.products = std::min(spec.products, 2'000);
    Bench bench(w, spec, args);
    bench.Setup();
    RoundResult r = bench.Round(true);
    const std::string name = WorkloadName(w);
    const Expected& expected = bench.expected();

    // Each corrupted copy must fail exactly the operation it corrupts.
    auto failed_ops = [&](const std::vector<OutRow>& rows) {
      return CheckOutput(bench.corpus(), expected, rows).failed();
    };
    expect(name, "output intact", false, failed_ops(r.rows) != 0);
    std::vector<OutRow> rows = r.rows;
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(rows.size() / 2));
    expect(name, "output row dropped", true, failed_ops(rows) == 1);
    rows = r.rows;
    rows.push_back(rows[rows.size() / 3]);
    expect(name, "output row duplicated", true, failed_ops(rows) == 1);
    rows = r.rows;
    (w == Workload::kFilterProject ? rows[rows.size() / 4].units : rows[rows.size() / 4].extra) += 1;
    expect(name, "output row altered", true, failed_ops(rows) == 1);

    // Each corrupted copy must trip the rule it targets.
    auto trips = [](const Conservation& c, const std::string& rule) {
      for (const std::string& v : CheckConservation(c)) {
        if (v.rfind(rule + ":", 0) == 0) return true;
      }
      return false;
    };
    const Conservation& intact = r.conservation;
    expect(name, "conservation intact", false, !CheckConservation(intact).empty());
    const std::vector<std::pair<std::string, std::function<void(Conservation&)>>> corruptions = {
        {"processed", [](Conservation& c) { c.task_processed += 1; }},
        {"fetched", [](Conservation& c) { c.fetched_input += 1; }},
        {"checkpoint", [](Conservation& c) { c.checkpoint_appends += 1; }},
        {"changelog", [](Conservation& c) { c.changelog_appends += 1; }},
        {"busy", [](Conservation& c) { c.worker_broker_ns = c.task_busy_ns + 1; }},
        {"offsets", [](Conservation& c) { c.end_offsets_after.begin()->second += 1; }},
        {"resumed", [](Conservation& c) { c.resumed_rows += 1; }},
        {"restore", [](Conservation& c) { c.restore_records = c.changelog_written + 1; }},
    };
    for (const auto& [rule, corrupt] : corruptions) {
      Conservation c = intact;
      corrupt(c);
      expect(name, "conservation " + rule, true, trips(c, rule));
    }
  }
  const bool pass = rejected == cases;
  std::printf("{\"self_test\": \"%s\", \"cases\": %d, \"as_expected\": %d}\n",
              pass ? "pass" : "fail", cases, rejected);
  return pass ? 0 : 1;
}

// --- paced latency: reference figures for README.md, not a driver metric ---
//
// A generator thread sends the filter workload's orders at a fixed rate
// (open loop: sends are due on a schedule whatever the engine does) while
// the executor drains them; reports the job's ingest-to-output-append
// latency histogram. One thread fewer than nproc executes, so generator and
// workers together stay within nproc.
int RunPacedLatency(const Args& base) {
  Args args = base;
  args.trace = false;
  if (args.threads <= 0) args.threads = std::max(1, ExecutorThreads() - 1);
  WorkloadSpec spec = SpecFor(Workload::kFilterProject);
  spec.orders = args.paced_rate * args.seconds;
  Bench bench(Workload::kFilterProject, spec, args);
  bench.Prepare();
  bench.Submit(false);
  const std::vector<Order>& orders = bench.corpus().orders;
  std::atomic<bool> done{false};
  std::atomic<int64_t> max_lag_us{0};
  std::string generator_error;  // written by the generator before `done`
  std::thread generator([&] {
    try {
      sqs::Producer producer(bench.env()->broker, bench.env()->clock);
      sqs::AvroRowSerde serde(Require(bench.env()->registry->GetLatest("Orders"), "schema").schema);
      const int64_t t0 = sqs::MonotonicNanos();
      const double step_ns = 1e9 / static_cast<double>(args.paced_rate);
      for (size_t i = 0; i < orders.size(); ++i) {
        const auto due = t0 + static_cast<int64_t>(static_cast<double>(i) * step_ns);
        int64_t now = sqs::MonotonicNanos();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = sqs::MonotonicNanos();
        }
        max_lag_us.store(std::max(max_lag_us.load(), (now - due) / 1000));
        Require(producer.Send("Orders", OrderKey(orders[i]), serde.SerializeToBytes(OrderRow(orders[i])))
                    .status(),
                "paced send");
      }
    } catch (const std::exception& e) {
      generator_error = e.what();
    }
    done.store(true);
  });
  while (true) {
    const bool finished = done.load();
    if (bench.Drive() == 0) {
      if (finished) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  generator.join();
  if (!generator_error.empty()) throw std::runtime_error(generator_error);
  const sqs::HistogramStats e2e = bench.E2eLatency();
  const OutputCheck check = bench.CheckOutputNow();
  std::printf("{\"paced_rate_msgs_per_s\": %" PRId64 ", \"executor_threads\": %d, "
              "\"samples\": %" PRId64 ", \"p50_us\": %" PRId64 ", \"p99_us\": %" PRId64
              ", \"max_us\": %" PRId64 ", \"generator_max_lag_us\": %" PRId64
              ", \"failed\": %" PRId64 "}\n",
              args.paced_rate, bench.threads(), e2e.count, e2e.p50, e2e.p99, e2e.max,
              max_lag_us.load(), check.failed());
  return check.failed() == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = ParseWorkload(value);
      if (!args.workload) return false;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--paced-latency") {
      args.paced_rate = std::stoll(value);
    } else if (flag == "--threads") {
      args.threads = std::stoi(value);
    } else if (flag == "--log-dir") {
      args.log_dir = value;
    } else {
      return false;
    }
  }
  return !args.log_dir.empty() && args.seconds > 0 &&
         (args.self_test || args.paced_rate > 0 || args.workload);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Die with the launcher rather than outlive it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  perfbench::MarkMainThread();
  perfbench::Args args;
  try {
    if (!perfbench::ParseArgs(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <filter_project|join_enrich|window_durable> "
                   "--seed <n> --seconds <s> --trace <0|1> --log-dir <dir>\n"
                   "       perfbench --self-test --log-dir <dir>\n"
                   "       perfbench --paced-latency <msgs/s> --seconds <s> [--threads <n>] "
                   "--log-dir <dir>\n");
      return 2;
    }
    sqs::Config log_config;
    log_config.Set(sqs::cfg::kLogLevel, "warn");
    sqs::ApplyLogConfig(log_config);
    std::filesystem::remove_all(args.log_dir);
    const int rc = args.self_test              ? perfbench::RunSelfTest(args)
                   : args.paced_rate > 0 ? perfbench::RunPacedLatency(args)
                                         : perfbench::RunWorkload(args);
    std::filesystem::remove_all(args.log_dir);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ignored;
    std::filesystem::remove_all(args.log_dir, ignored);
    return 1;
  }
}
