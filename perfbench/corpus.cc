#include "corpus.h"

#include "log/producer.h"

namespace perfbench {

namespace {

// SplitMix64: a seeded stream that is the same on every platform (unlike
// the distributions of <random>).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int32_t Below(int32_t n) { return static_cast<int32_t>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

// Draws a corpus from its seed: every product's supplierId, then the
// orders in orderId order. The load sends each order as it is drawn, so
// set-up keeps no copy of the corpus; MakeCorpus draws the same stream.
class Draw {
 public:
  Draw(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), rng_(seed) {
    suppliers.resize(static_cast<size_t>(spec.products));
    for (int32_t& s : suppliers) s = rng_.Below(kSuppliers);
  }
  bool Done() const { return next_ == spec_.orders; }
  Order NextOrder() {
    Order o;
    o.rowtime = kRowtimeStartMs + next_ * kRowtimeStepMs;
    o.order_id = next_++;
    o.product = rng_.Below(spec_.products);
    o.units = rng_.Below(kMaxUnits) + 1;
    return o;
  }

  std::vector<int32_t> suppliers;

 private:
  const WorkloadSpec& spec_;
  SplitMix64 rng_;
  int64_t next_ = 0;
};

// Pads a serialized order to ~100 bytes, the paper's message size.
const std::string& Pad() {
  static const std::string pad(74, 'x');
  return pad;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kFilterProject, Workload::kJoinEnrich,
                     Workload::kWindowDurable}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFilterProject: return "filter_project";
    case Workload::kJoinEnrich: return "join_enrich";
    case Workload::kWindowDurable: return "window_durable";
  }
  return "?";
}

WorkloadSpec SpecFor(Workload w) {
  WorkloadSpec spec;
  switch (w) {
    case Workload::kFilterProject:
      spec.sql = "SELECT STREAM rowtime, orderId, productId, units FROM Orders "
                 "WHERE units > 50";
      spec.exactly_once = true;
      spec.orders = 4'000'000;
      spec.products = 100'000;
      spec.restarts_per_round = 30;
      break;
    case Workload::kJoinEnrich:
      spec.sql = "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
                 "Orders.units, Products.supplierId FROM Orders JOIN Products ON "
                 "Orders.productId = Products.productId";
      spec.orders = 1'000'000;
      spec.products = 100'000;
      spec.load_products = true;
      spec.restarts_per_round = 10;
      break;
    case Workload::kWindowDurable:
      spec.sql = "SELECT STREAM rowtime, orderId, productId, units, SUM(units) OVER "
                 "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
                 "PRECEDING) AS unitsLastFiveMinutes FROM Orders";
      spec.exactly_once = true;
      spec.durable = true;
      spec.orders = 300'000;
      spec.products = 100;
      break;
  }
  return spec;
}

Corpus MakeCorpus(const WorkloadSpec& spec, uint64_t seed) {
  Draw draw(spec, seed);
  Corpus corpus;
  corpus.orders.reserve(static_cast<size_t>(spec.orders));
  while (!draw.Done()) corpus.orders.push_back(draw.NextOrder());
  corpus.suppliers = std::move(draw.suppliers);
  return corpus;
}

sqs::Row OrderRow(const Order& o) {
  return sqs::Row{sqs::Value(o.rowtime), sqs::Value(o.product), sqs::Value(o.order_id),
                  sqs::Value(o.units), sqs::Value(Pad())};
}

sqs::Row ProductRow(int32_t product, int32_t supplier) {
  return sqs::Row{sqs::Value(product), sqs::Value("product-" + std::to_string(product)),
                  sqs::Value(supplier)};
}

sqs::Bytes OrderKey(const Order& o) { return sqs::EncodeOrderedKey(sqs::Value(o.product)); }

sqs::Result<int64_t> LoadCorpus(sqs::core::SamzaSqlEnvironment& env,
                                const WorkloadSpec& spec, uint64_t seed) {
  SQS_ASSIGN_OR_RETURN(orders_schema, env.registry->GetLatest("Orders"));
  SQS_ASSIGN_OR_RETURN(products_schema, env.registry->GetLatest("Products"));
  sqs::AvroRowSerde orders(orders_schema.schema);
  sqs::AvroRowSerde products(products_schema.schema);
  sqs::Producer producer(env.broker, env.clock);
  Draw draw(spec, seed);
  int64_t sent = 0;
  if (spec.load_products) {
    for (int32_t p = 0; p < spec.products; ++p) {
      sqs::Row row = ProductRow(p, draw.suppliers[static_cast<size_t>(p)]);
      SQS_RETURN_IF_ERROR(producer
                              .Send("Products", sqs::EncodeOrderedKey(row[0]),
                                    products.SerializeToBytes(row))
                              .status());
      ++sent;
    }
  }
  while (!draw.Done()) {
    const Order o = draw.NextOrder();
    SQS_RETURN_IF_ERROR(
        producer.Send("Orders", OrderKey(o), orders.SerializeToBytes(OrderRow(o))).status());
    ++sent;
  }
  return sent;
}

}  // namespace perfbench
