#include "replay.h"

#include <algorithm>
#include <utility>

#include "cache/gpu_cache.h"
#include "common/logging.h"
#include "common/spinlock.h"
#include "data/next_use.h"
#include "pq/g_entry_registry.h"
#include "pq/two_level_pq.h"
#include "table/embedding_table.h"
#include "table/optimizer.h"

namespace perfbench {
namespace {

using frugal::GEntry;
using frugal::GpuId;
using frugal::Key;
using frugal::Step;

/** Trace steps per replay batch (one span each). */
constexpr std::size_t kBatchSteps = 32;
constexpr int kNextUseBuilds = 3;
constexpr int kGateChecksPerState = 16;

double
PerOp(std::int64_t ns, std::uint64_t ops)
{
    return ops == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(ops);
}

/** Calls `body(s)` for every trace step, recording one span named
 *  `name` per batch of kBatchSteps steps. */
template <typename Body>
void
ForEachStepBatched(std::size_t steps, const char *name, SpanBuffer &spans,
                   Body &&body)
{
    for (std::size_t begin = 0; begin < steps; begin += kBatchSteps) {
        const std::int64_t start = NowNs();
        const std::size_t end = std::min(steps, begin + kBatchSteps);
        for (std::size_t s = begin; s < end; ++s)
            body(s);
        spans.Record(name, start, NowNs());
    }
}

/** The keys step `s` touches on any GPU, sorted, with repeats (one per
 *  GPU that reads the key). */
void
StepKeysSorted(const frugal::Trace &trace, std::size_t s,
               std::vector<Key> &out)
{
    out.clear();
    for (const auto &keys : trace.StepAt(s).per_gpu)
        out.insert(out.end(), keys.begin(), keys.end());
    std::sort(out.begin(), out.end());
}

frugal::NextUseIndex
ReplayNextUse(const Workload &w, SpanBuffer &spans,
              std::vector<Metric> &out)
{
    std::vector<double> ms;
    frugal::NextUseIndex index;
    for (int i = 0; i < kNextUseBuilds; ++i) {
        const std::int64_t start = NowNs();
        frugal::NextUseIndex built = w.trace->BuildNextUseIndex();
        const std::int64_t end = NowNs();
        spans.Record("replay.data.next_use", start, end);
        ms.push_back(static_cast<double>(end - start) / 1e6);
        index = std::move(built);  // frees the previous build untimed
    }
    std::sort(ms.begin(), ms.end());
    out.push_back({"data.next_use_build_ms", ms[ms.size() / 2], "ms"});
    return index;
}

/** Each trainer's own cache, fed the keys it owns in trace order with
 *  the engine's next-use hints: TryGet every owned key, Put every miss. */
void
ReplayCache(const Workload &w, const frugal::NextUseIndex &next_use,
            SpanBuffer &spans, std::vector<Metric> &out)
{
    const frugal::EngineConfig &config = w.config;
    const frugal::Trace &trace = *w.trace;
    frugal::KeyOwnership ownership(config.n_gpus);
    std::vector<float> row(config.dim, 0.5f);
    std::vector<std::size_t> owned;
    std::vector<std::size_t> missed;
    std::int64_t get_ns = 0;
    std::int64_t put_ns = 0;
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    for (GpuId g = 0; g < config.n_gpus; ++g) {
        frugal::GpuCache cache(config.CacheRowsPerGpu(), config.dim,
                               config.cache_options);
        ForEachStepBatched(trace.NumSteps(), "replay.cache", spans,
                           [&](std::size_t s) {
            cache.SetEvictionHorizon(static_cast<Step>(s + config.lookahead));
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            const auto hints = next_use.HintRow(s, g);
            owned.clear();
            missed.clear();
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (ownership.OwnerOf(keys[i]) == g)
                    owned.push_back(i);
            }
            const std::int64_t t0 = NowNs();
            for (std::size_t i : owned) {
                if (!cache.TryGet(keys[i], row.data(), hints[i]))
                    missed.push_back(i);
            }
            const std::int64_t t1 = NowNs();
            for (std::size_t i : missed)
                cache.Put(keys[i], row.data(), hints[i]);
            const std::int64_t t2 = NowNs();
            get_ns += t1 - t0;
            put_ns += t2 - t1;
            gets += owned.size();
            puts += missed.size();
        });
    }
    out.push_back({"cache.try_get_ns", PerOp(get_ns, gets), "ns"});
    out.push_back({"cache.put_ns", PerOp(put_ns, puts), "ns"});
}

/** Host gathers of every (step, GPU) key list, then one ApplyGradients
 *  per distinct key of the step with one gradient per GPU that read it. */
void
ReplayTable(const Workload &w, SpanBuffer &spans, std::vector<Metric> &out)
{
    const frugal::EngineConfig &config = w.config;
    const frugal::Trace &trace = *w.trace;
    frugal::EmbeddingTableConfig table_config;
    table_config.key_space = config.key_space;
    table_config.dim = config.dim;
    table_config.init_seed = config.init_seed;
    table_config.init_scale = config.init_scale;
    frugal::HostEmbeddingTable table(table_config);
    auto optimizer =
        frugal::MakeOptimizer(config.optimizer, config.learning_rate,
                              config.key_space, config.dim);
    std::vector<float> rows;
    const std::vector<float> grad(config.dim, 1e-3f);
    const std::vector<const float *> grads(config.n_gpus, grad.data());
    std::vector<Key> step_keys;
    std::int64_t read_ns = 0;
    std::int64_t apply_ns = 0;
    std::uint64_t reads = 0;
    std::uint64_t updates = 0;
    ForEachStepBatched(trace.NumSteps(), "replay.table", spans,
                       [&](std::size_t s) {
        for (GpuId g = 0; g < config.n_gpus; ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            rows.resize(keys.size() * config.dim);
            const std::int64_t t0 = NowNs();
            table.ReadRows(keys.data(), keys.size(), rows.data());
            read_ns += NowNs() - t0;
            reads += keys.size();
        }
        StepKeysSorted(trace, s, step_keys);
        const std::int64_t t0 = NowNs();
        for (std::size_t i = 0; i < step_keys.size();) {
            std::size_t j = i + 1;
            while (j < step_keys.size() && step_keys[j] == step_keys[i])
                ++j;
            table.ApplyGradients(step_keys[i], grads.data(), j - i,
                                 *optimizer);
            i = j;
        }
        apply_ns += NowNs() - t0;
        updates += step_keys.size();
    });
    out.push_back({"table.read_rows_ns_per_row", PerOp(read_ns, reads),
                   "ns"});
    out.push_back({"table.apply_ns_per_update", PerOp(apply_ns, updates),
                   "ns"});
}

/** Get-or-create of every (step, GPU) key list, as the prefetcher and
 *  drainer resolve them. */
void
ReplayRegistry(const Workload &w, SpanBuffer &spans,
               std::vector<Metric> &out)
{
    const frugal::Trace &trace = *w.trace;
    frugal::GEntryRegistry registry(64, w.config.key_space);
    std::vector<GEntry *> resolved;
    std::int64_t ns = 0;
    std::uint64_t keys_resolved = 0;
    ForEachStepBatched(trace.NumSteps(), "replay.pq.registry", spans,
                       [&](std::size_t s) {
        for (GpuId g = 0; g < w.config.n_gpus; ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            resolved.resize(keys.size());
            const std::int64_t t0 = NowNs();
            registry.GetOrCreateBatch(keys, resolved.data());
            ns += NowNs() - t0;
            keys_resolved += keys.size();
        }
    });
    out.push_back({"pq.registry_ns_per_key", PerOp(ns, keys_resolved),
                   "ns"});
}

/**
 * The flush-scheduling cycle for each step's distinct keys: register a
 * read at the step and a pending write, Enqueue at the resulting
 * priority, then DequeueClaim batches until empty, taking the writes and
 * retiring each ticket with OnFlushed. The gate predicate is timed with
 * the step's entries pending (must answer true) and drained (false).
 */
void
ReplayPq(const Workload &w, SpanBuffer &spans, std::vector<Metric> &out)
{
    const frugal::EngineConfig &config = w.config;
    const frugal::Trace &trace = *w.trace;
    frugal::TwoLevelPQConfig pq_config;
    pq_config.max_step = trace.NumSteps();
    pq_config.n_shards = std::max<std::size_t>(1, config.flush_threads);
    frugal::TwoLevelPQ pq(pq_config);
    frugal::GEntryRegistry registry(64, config.key_space);
    std::vector<Key> step_keys;
    std::vector<GEntry *> entries;
    std::vector<frugal::ClaimTicket> claims;
    std::int64_t cycle_ns = 0;
    std::int64_t gate_ns = 0;
    std::uint64_t cycled = 0;
    std::uint64_t gate_calls = 0;
    auto time_gate = [&](Step s, bool expect_pending) {
        int pending = 0;
        const std::int64_t t0 = NowNs();
        for (int k = 0; k < kGateChecksPerState; ++k)
            pending += pq.HasPendingAtOrBelow(s) ? 1 : 0;
        gate_ns += NowNs() - t0;
        gate_calls += kGateChecksPerState;
        FRUGAL_CHECK_MSG(pending == (expect_pending ? kGateChecksPerState
                                                    : 0),
                         "gate answered wrongly at step " << s);
    };
    ForEachStepBatched(trace.NumSteps(), "replay.pq.cycle", spans,
                       [&](std::size_t index) {
        const Step s = static_cast<Step>(index);
        StepKeysSorted(trace, index, step_keys);
        step_keys.erase(std::unique(step_keys.begin(), step_keys.end()),
                        step_keys.end());
        entries.resize(step_keys.size());
        registry.GetOrCreateBatch(step_keys, entries.data());
        pq.SetScanBounds(s, s + config.lookahead);

        const std::int64_t t0 = NowNs();
        for (GEntry *entry : entries) {
            frugal::SpinGuard guard(entry->lock());
            entry->AddReadLocked(s);
            const auto change = entry->AddWriteLocked(frugal::WriteRecord{});
            entry->setEnqueuedLocked(true);
            pq.Enqueue(entry, change.second);
        }
        cycle_ns += NowNs() - t0;
        time_gate(s, !entries.empty());

        std::size_t claimed = 0;
        const std::int64_t t1 = NowNs();
        while (pq.DequeueClaim(claims, config.flush_batch) > 0) {
            for (const frugal::ClaimTicket &ticket : claims) {
                {
                    frugal::SpinGuard guard(ticket.entry->lock());
                    ticket.entry->TakeWritesLocked();
                    ticket.entry->RemoveReadLocked(s);
                }
                pq.OnFlushed(ticket);
            }
            claimed += claims.size();
            claims.clear();
        }
        cycle_ns += NowNs() - t1;
        FRUGAL_CHECK_MSG(claimed == entries.size(),
                         "claimed " << claimed << " of " << entries.size()
                                    << " entries at step " << s);
        time_gate(s, false);
        cycled += entries.size();
    });
    out.push_back({"pq.enqueue_claim_ns_per_entry", PerOp(cycle_ns, cycled),
                   "ns"});
    out.push_back({"pq.gate_check_ns", PerOp(gate_ns, gate_calls), "ns"});
}

}  // namespace

void
RunReplays(const Workload &workload, SpanBuffer &spans,
           std::vector<Metric> &out)
{
    const frugal::NextUseIndex next_use =
        ReplayNextUse(workload, spans, out);
    ReplayCache(workload, next_use, spans, out);
    ReplayTable(workload, spans, out);
    ReplayRegistry(workload, spans, out);
    ReplayPq(workload, spans, out);
}

}  // namespace perfbench
