#include "checks.h"

#include <algorithm>

namespace perfbench {

sqs::Result<std::vector<OutRow>> ReadOutput(const sqs::Broker& broker,
                                            const sqs::SchemaRegistry& registry,
                                            const std::string& topic) {
  SQS_ASSIGN_OR_RETURN(registered, registry.GetLatest(topic));
  if (registered.schema->num_fields() < 4) {
    return sqs::Status::InvalidArgument("output schema of " + topic + " has too few columns");
  }
  const bool has_extra = registered.schema->num_fields() >= 5;
  sqs::AvroRowSerde serde(registered.schema);
  SQS_ASSIGN_OR_RETURN(partitions, broker.NumPartitions(topic));
  std::vector<OutRow> rows;
  for (int32_t p = 0; p < partitions; ++p) {
    const sqs::StreamPartition sp{topic, p};
    SQS_ASSIGN_OR_RETURN(begin, broker.BeginOffset(sp));
    SQS_ASSIGN_OR_RETURN(end, broker.EndOffset(sp));
    for (int64_t pos = begin; pos < end;) {
      SQS_ASSIGN_OR_RETURN(batch, broker.Fetch(sp, pos, 4096));
      if (batch.empty()) break;
      for (const auto& m : batch) {
        SQS_ASSIGN_OR_RETURN(row, serde.DeserializeBytes(m.message.value));
        OutRow out;
        out.rowtime = row[0].ToInt64();
        out.order_id = row[1].ToInt64();
        out.product = row[2].ToInt64();
        out.units = row[3].ToInt64();
        if (has_extra) out.extra = row[4].ToInt64();
        rows.push_back(out);
      }
      pos += static_cast<int64_t>(batch.size());
    }
  }
  return rows;
}

Expected ComputeExpected(Workload w, const Corpus& corpus) {
  const size_t n = corpus.orders.size();
  Expected e;
  e.emitted.assign(n, 1);
  e.extra.assign(n, 0);
  switch (w) {
    case Workload::kFilterProject:
      for (size_t i = 0; i < n; ++i) {
        e.emitted[i] = corpus.orders[i].units > kFilterMinUnits ? 1 : 0;
      }
      break;
    case Workload::kJoinEnrich:
      for (size_t i = 0; i < n; ++i) {
        e.extra[i] = corpus.suppliers[static_cast<size_t>(corpus.orders[i].product)];
      }
      break;
    case Workload::kWindowDurable: {
      // SQL RANGE frame: SUM(units) over the orders of the same productId
      // with rowtime in [t - 5 min, t]. Rowtimes strictly increase, so each
      // product's orders form a sorted sequence and a two-pointer sweep per
      // product computes every frame.
      std::vector<std::vector<size_t>> by_product(corpus.suppliers.size());
      for (size_t i = 0; i < n; ++i) {
        by_product[static_cast<size_t>(corpus.orders[i].product)].push_back(i);
      }
      for (const auto& seq : by_product) {
        int64_t sum = 0;
        size_t lo = 0;
        for (size_t hi = 0; hi < seq.size(); ++hi) {
          const Order& cur = corpus.orders[seq[hi]];
          sum += cur.units;
          while (corpus.orders[seq[lo]].rowtime < cur.rowtime - kWindowMs) {
            sum -= corpus.orders[seq[lo]].units;
            ++lo;
          }
          e.extra[seq[hi]] = sum;
        }
      }
      break;
    }
  }
  return e;
}

OutputCheck CheckOutput(const Corpus& corpus, const Expected& expected,
                        const std::vector<OutRow>& rows) {
  OutputCheck check;
  const size_t n = corpus.orders.size();
  std::vector<uint32_t> seen(n, 0);
  std::vector<uint8_t> wrong(n, 0);
  auto note = [&check](const std::string& problem) {
    if (check.first_problem.empty()) check.first_problem = problem;
  };
  for (const OutRow& row : rows) {
    if (row.order_id < 0 || row.order_id >= static_cast<int64_t>(n)) {
      ++check.stray_rows;
      note("row with unknown orderId " + std::to_string(row.order_id));
      continue;
    }
    const auto id = static_cast<size_t>(row.order_id);
    const Order& o = corpus.orders[id];
    ++seen[id];
    if (row.rowtime != o.rowtime || row.product != o.product || row.units != o.units ||
        row.extra != expected.extra[id]) {
      wrong[id] = 1;
      note("order " + std::to_string(id) + " row differs: extra=" +
           std::to_string(row.extra) + " expected " + std::to_string(expected.extra[id]));
    }
  }
  for (size_t id = 0; id < n; ++id) {
    if (seen[id] != expected.emitted[id] || wrong[id] != 0) {
      ++check.failed_orders;
      if (seen[id] != expected.emitted[id]) {
        note("order " + std::to_string(id) + " has " + std::to_string(seen[id]) +
             " rows, expected " + std::to_string(expected.emitted[id]));
      }
    }
  }
  return check;
}

std::vector<std::string> CheckConservation(const Conservation& c) {
  std::vector<std::string> v;
  auto rule = [&v](const char* id, bool holds, const std::string& what) {
    if (!holds) v.push_back(std::string(id) + ": " + what);
  };
  const std::string processed = std::to_string(c.task_processed);
  rule("processed", c.task_processed == c.corpus_messages,
       "task.processed " + processed + " != corpus " + std::to_string(c.corpus_messages));
  for (const auto& [partition, before] : c.end_offsets_before) {
    auto it = c.end_offsets_after.find(partition);
    const int64_t after = it == c.end_offsets_after.end() ? -1 : it->second;
    rule("offsets", after == before, "end offset of " + partition + " was " + std::to_string(before) +
                              " before the restart, " + std::to_string(after) + " after");
  }
  rule("resumed", c.resumed_processed == 0 && c.resumed_rows == 0,
       "resumed job processed " + std::to_string(c.resumed_processed) + " messages and emitted " +
           std::to_string(c.resumed_rows) + " rows");
  if (!c.traced) return v;
  rule("fetched", c.fetched_input == c.task_processed,
       "fetched input " + std::to_string(c.fetched_input) + " != task.processed " + processed);
  rule("checkpoint", c.checkpoint_appends == c.task_checkpoint_writes,
       "checkpoint appends " + std::to_string(c.checkpoint_appends) +
           " != task.checkpoint_writes " + std::to_string(c.task_checkpoint_writes));
  rule("changelog", c.changelog_appends == c.task_changelog_writes,
       "changelog appends " + std::to_string(c.changelog_appends) +
           " != task.changelog_writes " + std::to_string(c.task_changelog_writes));
  rule("busy", c.worker_broker_ns <= c.task_busy_ns,
       "broker time on pool threads " + std::to_string(c.worker_broker_ns) +
           " ns > task.busy_ns " + std::to_string(c.task_busy_ns));
  rule("restore", c.restore_records <= c.changelog_written,
       "restart fetched " + std::to_string(c.restore_records) + " changelog records, only " +
           std::to_string(c.changelog_written) + " were written");
  return v;
}

}  // namespace perfbench
