#include "layers.h"

#include <algorithm>
#include <vector>

#include "common/clock.h"
#include "common/crc32c.h"
#include "kv/changelog.h"
#include "log/producer.h"
#include "sql/batch_eval.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace perfbench {

namespace {

constexpr size_t kSampleOrders = 100'000;
constexpr int kPasses = 5;
constexpr int kPlansPerPass = 50;

// Results flow here so the timed loops cannot be optimized away.
volatile uint64_t g_sink = 0;

// Median of `kPasses` timed passes after one warm-up pass. `pass` returns
// the per-unit cost of one pass.
template <typename Pass>
double MedianOfPasses(Pass&& pass) {
  pass();
  std::vector<double> costs;
  for (int i = 0; i < kPasses; ++i) costs.push_back(pass());
  std::sort(costs.begin(), costs.end());
  return costs[costs.size() / 2];
}

template <typename Body>
double NsPerUnit(size_t units, Body&& body) {
  const int64_t t0 = sqs::MonotonicNanos();
  body();
  return static_cast<double>(sqs::MonotonicNanos() - t0) / static_cast<double>(units);
}

// The window operator's message-store key layout (ops/window.cc):
// prefix + order-preserving rowtime + partition + offset.
void AppendOrderedTs(sqs::Bytes& key, int64_t ts) {
  const uint64_t u = static_cast<uint64_t>(ts) ^ (1ull << 63);
  for (int i = 7; i >= 0; --i) key.push_back(static_cast<uint8_t>(u >> (8 * i)));
}

void AppendFixed32(sqs::Bytes& key, uint32_t v) {
  for (int i = 3; i >= 0; --i) key.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

sqs::Result<sqs::sql::LogicalNodePtr> PlanSql(const sqs::sql::CatalogPtr& catalog,
                                              const std::string& sql) {
  SQS_ASSIGN_OR_RETURN(stmt, sqs::sql::ParseStatement(sql));
  if (!stmt.select) return sqs::Status::InvalidArgument("not a SELECT: " + sql);
  sqs::sql::QueryPlanner planner(catalog);
  SQS_ASSIGN_OR_RETURN(plan, planner.Plan(*stmt.select));
  return sqs::sql::Optimize(plan);
}

sqs::Value IntOfKind(sqs::TypeKind kind, int64_t v) {
  return kind == sqs::TypeKind::kInt32 ? sqs::Value(static_cast<int32_t>(v)) : sqs::Value(v);
}

using StorePtr = std::shared_ptr<sqs::ChangelogBackedStore>;

// One changelog-backed in-memory store per partition, mirrored to a scratch
// broker — the layout a job's tasks get.
std::vector<StorePtr> MakeStores(const sqs::BrokerPtr& broker, const std::string& topic) {
  sqs::Status st = broker->CreateTopic(topic, {.num_partitions = kPartitions, .compacted = true});
  if (!st.ok()) throw std::runtime_error(st.ToString());
  std::vector<StorePtr> stores;
  for (int32_t p = 0; p < kPartitions; ++p) {
    stores.push_back(std::make_shared<sqs::ChangelogBackedStore>(
        std::make_shared<sqs::InMemoryStore>(), broker, sqs::StreamPartition{topic, p}));
  }
  return stores;
}

}  // namespace

sqs::Result<LayerPhase> RunLayerPhase(const WorkloadSpec& spec, const Corpus& corpus,
                                      const sqs::sql::CatalogPtr& catalog) {
  LayerPhase out;
  const size_t n = std::min(kSampleOrders, corpus.orders.size());
  SQS_ASSIGN_OR_RETURN(orders_source, catalog->GetSource("Orders"));
  SQS_ASSIGN_OR_RETURN(products_source, catalog->GetSource("Products"));
  auto orders_serde = std::make_shared<sqs::AvroRowSerde>(orders_source.schema);
  sqs::ReflectiveRowSerde state_serde(products_source.schema);

  std::vector<sqs::Bytes> keys(n);
  std::vector<sqs::Bytes> values(n);
  std::vector<int32_t> partitions(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = OrderKey(corpus.orders[i]);
    values[i] = orders_serde->SerializeToBytes(OrderRow(corpus.orders[i]));
    partitions[i] = sqs::Producer::PartitionForKey(keys[i], kPartitions);
  }

  // --- serde, common, sql: the filter's fused-stage spec over this corpus ---
  SQS_ASSIGN_OR_RETURN(filter_plan, PlanSql(catalog, SpecFor(Workload::kFilterProject).sql));
  auto stages = sqs::sql::PlanFusedStages(*filter_plan);
  if (stages.empty()) return sqs::Status::Internal("filter query did not fuse");
  const std::vector<bool> wanted = stages[0].referenced;
  SQS_ASSIGN_OR_RETURN(kernel, sqs::sql::FusedStageKernel::Compile(stages[0], orders_serde,
                                                                   /*passthrough=*/false));

  out.decode_full_ns_per_msg = MedianOfPasses([&] {
    return NsPerUnit(n, [&] {
      for (const sqs::Bytes& v : values) {
        sqs::BytesReader r(v);
        auto row = orders_serde->Deserialize(r);
        g_sink = g_sink + (row.ok() ? row.value().size() : 0);
      }
    });
  });
  out.decode_projected_ns_per_msg = MedianOfPasses([&] {
    return NsPerUnit(n, [&] {
      for (const sqs::Bytes& v : values) {
        sqs::BytesReader r(v);
        auto row = orders_serde->DeserializeProjected(r, wanted);
        g_sink = g_sink + (row.ok() ? row.value().size() : 0);
      }
    });
  });
  out.fused_kernel_ns_per_msg = MedianOfPasses([&] {
    return NsPerUnit(n, [&] {
      for (const sqs::Bytes& v : values) {
        auto applied = kernel.Apply(v);
        g_sink = g_sink + (applied.ok() && applied.value().pass ? 1 : 0);
      }
    });
  });
  out.crc32c_ns_per_msg = MedianOfPasses([&] {
    return NsPerUnit(n, [&] {
      for (size_t i = 0; i < n; ++i) {
        uint32_t c = sqs::Crc32cExtend(0, keys[i].data(), keys[i].size());
        g_sink = g_sink + sqs::Crc32cExtend(c, values[i].data(), values[i].size());
      }
    });
  });

  // Output rows of the workload's own query, encoded with its output schema.
  SQS_ASSIGN_OR_RETURN(plan, PlanSql(catalog, spec.sql));
  const sqs::SchemaPtr& out_schema = plan->schema;
  std::vector<sqs::Row> out_rows(n);
  for (size_t i = 0; i < n; ++i) {
    const Order& o = corpus.orders[i];
    const int64_t cols[] = {o.rowtime, o.order_id, o.product, o.units,
                            corpus.suppliers[static_cast<size_t>(o.product)]};
    for (size_t f = 0; f < out_schema->num_fields() && f < 5; ++f) {
      out_rows[i].push_back(IntOfKind(out_schema->field(f).type.kind, cols[f]));
    }
  }
  sqs::AvroRowSerde out_serde(out_schema);
  out.encode_ns_per_msg = MedianOfPasses([&] {
    return NsPerUnit(n, [&] {
      for (const sqs::Row& row : out_rows) {
        sqs::BytesWriter w(64);
        sqs::Status st = out_serde.Serialize(row, w);
        g_sink = g_sink + (st.ok() ? w.size() : 0);
      }
    });
  });
  out.plan_ns = MedianOfPasses([&] {
    return NsPerUnit(kPlansPerPass, [&] {
      for (int i = 0; i < kPlansPerPass; ++i) {
        auto planned = PlanSql(catalog, spec.sql);
        g_sink = g_sink + (planned.ok() ? 1 : 0);
      }
    });
  });

  // --- kv: relation-store point reads probed in corpus order ---
  {
    auto broker = std::make_shared<sqs::Broker>();
    std::vector<StorePtr> stores = MakeStores(broker, "perfbench-layer-table");
    for (int32_t p = 0; p < spec.products; ++p) {
      sqs::Bytes key = sqs::EncodeOrderedKey(sqs::Value(p));
      const int32_t part = sqs::Producer::PartitionForKey(key, kPartitions);
      stores[static_cast<size_t>(part)]->Put(
          key, state_serde.SerializeToBytes(
                   ProductRow(p, corpus.suppliers[static_cast<size_t>(p)])));
    }
    out.kv_get_ns_per_op = MedianOfPasses([&] {
      return NsPerUnit(n, [&] {
        for (size_t i = 0; i < n; ++i) {
          auto v = stores[static_cast<size_t>(partitions[i])]->Get(keys[i]);
          g_sink = g_sink + (v ? v->size() : 0);
        }
      });
    });
    std::vector<sqs::Bytes> stored(n);
    for (size_t i = 0; i < n; ++i) {
      stored[i] = stores[static_cast<size_t>(partitions[i])]->Get(keys[i]).value_or(sqs::Bytes{});
    }
    out.state_decode_ns_per_row = MedianOfPasses([&] {
      return NsPerUnit(n, [&] {
        for (const sqs::Bytes& v : stored) {
          auto row = state_serde.DeserializeBytes(v);
          g_sink = g_sink + (row.ok() ? row.value().size() : 0);
        }
      });
    });
  }

  // --- kv: the sliding window's store traffic replayed over the corpus.
  // Each call is timed on its own, so each figure includes one clock read.
  struct WindowCosts {
    double put = 0;
    double range = 0;
  };
  std::vector<WindowCosts> passes;
  for (int pass = 0; pass <= kPasses; ++pass) {
    auto broker = std::make_shared<sqs::Broker>();
    std::vector<StorePtr> msgs = MakeStores(broker, "perfbench-layer-msgs");
    std::vector<StorePtr> aggs = MakeStores(broker, "perfbench-layer-aggs");
    std::vector<int64_t> offsets(kPartitions, 0);
    int64_t write_ns = 0, writes = 0, range_ns = 0, positions = 0;
    std::vector<sqs::Bytes> expired;
    for (size_t i = 0; i < n; ++i) {
      const Order& o = corpus.orders[i];
      const auto part = static_cast<size_t>(partitions[i]);
      sqs::Bytes prefix = sqs::EncodeOrderedKey(sqs::Row{sqs::Value(o.product)});
      sqs::Bytes msg_key = prefix;
      AppendOrderedTs(msg_key, o.rowtime);
      AppendFixed32(msg_key, static_cast<uint32_t>(part));
      AppendOrderedTs(msg_key, offsets[part]++);
      sqs::Bytes units = sqs::EncodeOrderedKey(sqs::Value(o.units));
      sqs::Bytes upper = prefix;
      AppendOrderedTs(upper, o.rowtime - kWindowMs);

      int64_t t0 = sqs::MonotonicNanos();
      msgs[part]->Put(msg_key, std::move(units));
      int64_t t1 = sqs::MonotonicNanos();
      expired.clear();
      msgs[part]->Range(prefix, upper, [&expired](const sqs::Bytes& k, const sqs::Bytes&) {
        expired.push_back(k);
        return true;
      });
      int64_t t2 = sqs::MonotonicNanos();
      for (const sqs::Bytes& k : expired) msgs[part]->Delete(k);
      aggs[part]->Put(prefix, sqs::Bytes(16, 0));
      int64_t t3 = sqs::MonotonicNanos();
      write_ns += (t1 - t0) + (t3 - t2);
      writes += 2 + static_cast<int64_t>(expired.size());
      range_ns += t2 - t1;
      positions += 1 + static_cast<int64_t>(expired.size());
    }
    if (pass == 0) continue;  // warm-up
    passes.push_back({static_cast<double>(write_ns) / static_cast<double>(writes),
                      static_cast<double>(range_ns) / static_cast<double>(positions)});
  }
  auto median = [&passes](double WindowCosts::*field) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(p.*field);
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.kv_put_ns_per_op = median(&WindowCosts::put);
  out.kv_range_ns_per_entry = median(&WindowCosts::range);
  return out;
}

}  // namespace perfbench
