// Workloads and their seeded input corpora.
//
// Every workload drains a pre-loaded Orders topic (the paper's §5.1 schema,
// ~100-byte Avro records keyed by productId). The corpus is generated here,
// from the run's seed; the checks draw it again in compact form to compute
// the expected output independently of the engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/environment.h"
#include "serde/serde.h"

namespace perfbench {

enum class Workload { kFilterProject, kJoinEnrich, kWindowDurable };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

// The make-up of one workload's corpus and job.
struct WorkloadSpec {
  std::string sql;
  bool exactly_once = false;
  bool durable = false;    // log.durable=true, log.fsync=interval
  int64_t orders = 0;
  int32_t products = 0;    // productId uniform in [0, products)
  bool load_products = false;  // Products relation loaded (join only)
  // Restarts per round, timed together as the round's recovery_s sample. A
  // resubmission on the heap log takes ~10-20 ms (filter) or ~90 ms (join):
  // on a shared VM, CPU speed swings by a third over such spans, so several
  // are summed. A cold restart of the durable log takes about a second.
  int restarts_per_round = 1;
};

WorkloadSpec SpecFor(Workload w);

inline constexpr int32_t kPartitions = 32;
inline constexpr int32_t kMaxUnits = 100;             // units uniform in [1, 100]
inline constexpr int64_t kRowtimeStartMs = 1'600'000'000'000;
inline constexpr int64_t kRowtimeStepMs = 25;         // strictly increasing event time
inline constexpr int64_t kWindowMs = 5 * 60 * 1000;   // RANGE INTERVAL '5' MINUTE
inline constexpr int32_t kSuppliers = 1000;
inline constexpr int32_t kFilterMinUnits = 50;        // WHERE units > 50

struct Order {
  int64_t rowtime = 0;
  int64_t order_id = 0;
  int32_t product = 0;
  int32_t units = 0;
};

struct Corpus {
  std::vector<Order> orders;       // order_id == index, rowtime increasing
  std::vector<int32_t> suppliers;  // supplierId per productId
};

Corpus MakeCorpus(const WorkloadSpec& spec, uint64_t seed);

// Avro value bytes and ordered key, exactly as the load sends them.
sqs::Row OrderRow(const Order& o);
sqs::Row ProductRow(int32_t product, int32_t supplier);
sqs::Bytes OrderKey(const Order& o);

// Draws the corpus of `seed` and sends it through the engine's Producer as
// it is drawn: Products first (when the workload loads them), then Orders.
// The messages are those of MakeCorpus(spec, seed). Returns the number sent.
sqs::Result<int64_t> LoadCorpus(sqs::core::SamzaSqlEnvironment& env,
                                const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench
