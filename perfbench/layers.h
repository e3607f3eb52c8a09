// Layer phase of the traced invocation: times the public entry points of
// single layers on the workload's own corpus, after a warm-up pass. Each
// figure is the median of several passes.
#pragma once

#include "corpus.h"
#include "sql/catalog.h"

namespace perfbench {

struct LayerPhase {
  double decode_projected_ns_per_msg = 0;  // AvroRowSerde::DeserializeProjected
  double decode_full_ns_per_msg = 0;       // AvroRowSerde::Deserialize
  double encode_ns_per_msg = 0;            // AvroRowSerde::Serialize of output rows
  double state_decode_ns_per_row = 0;      // ReflectiveRowSerde on relation rows
  double crc32c_ns_per_msg = 0;            // Crc32c over key + value
  double fused_kernel_ns_per_msg = 0;      // FusedStageKernel::Apply, filter spec
  double plan_ns = 0;                      // parse + plan + optimize the workload's query
  double kv_get_ns_per_op = 0;             // relation-store point reads
  double kv_put_ns_per_op = 0;             // window-store writes (put or tombstone)
  double kv_range_ns_per_entry = 0;        // window-store range scans
};

sqs::Result<LayerPhase> RunLayerPhase(const WorkloadSpec& spec, const Corpus& corpus,
                                      const sqs::sql::CatalogPtr& catalog);

}  // namespace perfbench
