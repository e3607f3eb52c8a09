// Correctness and conservation checks. Each check is a pure function of
// data the benchmark collected, so the self-test can feed it a corrupted
// copy of a real run and show that it rejects it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "log/broker.h"
#include "serde/registry.h"

namespace perfbench {

// One output row, reduced to the columns the checks compare. Every
// workload's query emits (rowtime, orderId, productId, units[, extra]);
// `extra` is the supplierId (join) or the window sum (window), else 0.
struct OutRow {
  int64_t rowtime = 0;
  int64_t order_id = 0;
  int64_t product = 0;
  int64_t units = 0;
  int64_t extra = 0;
};

sqs::Result<std::vector<OutRow>> ReadOutput(const sqs::Broker& broker,
                                            const sqs::SchemaRegistry& registry,
                                            const std::string& topic);

// What the query must emit for each order, computed from the corpus alone.
struct Expected {
  std::vector<uint8_t> emitted;  // per orderId: 1 if the order has a row
  std::vector<int64_t> extra;    // per orderId: expected `extra` column
};

Expected ComputeExpected(Workload w, const Corpus& corpus);

struct OutputCheck {
  int64_t failed_orders = 0;  // orders whose row is missing, duplicated or wrong
  int64_t stray_rows = 0;     // rows naming no order of the corpus
  std::string first_problem;
  int64_t failed() const { return failed_orders + stray_rows; }
};

OutputCheck CheckOutput(const Corpus& corpus, const Expected& expected,
                        const std::vector<OutRow>& rows);

// Quantities that must agree although they are measured along independent
// paths: the timing decorators, the job's metrics registry, the broker, and
// the corpus. Decorator-side fields are only compared when `traced`.
struct Conservation {
  bool traced = false;
  int64_t corpus_messages = 0;         // input messages loaded (orders + products)
  int64_t task_processed = 0;          // registry: Σ container processed
  int64_t fetched_input = 0;           // decorator: input + bootstrap messages fetched
  int64_t checkpoint_appends = 0;      // decorator
  int64_t task_checkpoint_writes = 0;  // registry
  int64_t changelog_appends = 0;       // decorator
  int64_t task_changelog_writes = 0;   // registry
  int64_t worker_broker_ns = 0;        // decorator: broker time on pool threads
  int64_t task_busy_ns = 0;            // registry: Σ container busy_ns
  std::map<std::string, int64_t> end_offsets_before;  // "topic[p]" before the restart
  std::map<std::string, int64_t> end_offsets_after;   // same partitions after it
  int64_t resumed_processed = 0;       // messages the resumed job processed
  int64_t resumed_rows = 0;            // output rows the resumed job appended
  int64_t restore_records = 0;         // decorator: changelog records fetched by the restart
  int64_t changelog_written = 0;       // changelog records present before the restart
};

// One message per violated rule, "<rule>: <detail>", where <rule> is one of
// processed, offsets, resumed, fetched, checkpoint, changelog, busy,
// restore. Empty when every rule holds.
std::vector<std::string> CheckConservation(const Conservation& c);

}  // namespace perfbench
