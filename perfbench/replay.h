/**
 * @file
 * Layer replays for the traced run: each drives one module's public API
 * single-threaded over the workload's own key stream, at the engine's
 * sizes, and reports nanoseconds per operation. Each replay batch is
 * recorded as one span.
 */
#ifndef FRUGAL_PERFBENCH_REPLAY_H_
#define FRUGAL_PERFBENCH_REPLAY_H_

#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

/**
 * Runs every replay over `workload` and appends its metrics:
 * data.next_use_build_ms, cache.try_get_ns, cache.put_ns,
 * table.read_rows_ns_per_row, table.apply_ns_per_update,
 * pq.registry_ns_per_key, pq.enqueue_claim_ns_per_entry and
 * pq.gate_check_ns.
 */
void RunReplays(const Workload &workload, SpanBuffer &spans,
                std::vector<Metric> &out);

}  // namespace perfbench

#endif  // FRUGAL_PERFBENCH_REPLAY_H_
