#include "runtime/baseline_engines.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace frugal {
namespace engine_internal {

namespace {

/** One buffered update awaiting the step's commit phase: row `row` of
 *  GPU `src`'s gradient slot. */
struct PendingRef
{
    Key key;
    GpuId src;
    std::uint32_t row;
};

double
Seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

RunReport
RunSync(Engine &engine, const Trace &trace, const GradFn &grad_fn,
        const StepHook &step_hook, SyncMode mode, const std::string &name)
{
    const EngineConfig &config = engine.config();
    HostEmbeddingTable &table = engine.table();
    const Step n_steps = trace.NumSteps();
    const std::uint32_t n_gpus = config.n_gpus;
    FRUGAL_CHECK_MSG(trace.n_gpus() == n_gpus, "trace/engine GPU mismatch");
    KeyOwnership ownership(n_gpus);

    std::vector<std::unique_ptr<GpuCache>> caches;
    if (mode != SyncMode::kNoCache) {
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            caches.push_back(std::make_unique<GpuCache>(
                config.CacheRowsPerGpu(), config.dim,
                config.cache_options));
        }
    }

    RunReport report;
    report.engine = name;
    report.steps = n_steps;
    report.n_gpus = n_gpus;
    std::atomic<std::uint64_t> host_reads{0};
    std::atomic<std::uint64_t> remote_queries{0};
    std::atomic<Step> current_step{0};

    // Commit state, reused from step to step: each GPU's gradients for
    // the step (filled by its trainer), the step's (key, src, row) index
    // and one key run's gradient rows.
    std::vector<std::vector<float>> grad_slots(n_gpus);
    std::vector<PendingRef> pending;
    std::vector<const float *> run_grads;
    double commit_seconds_total = 0.0;
    StatAccumulator commit_per_step;
    std::uint64_t updates_applied = 0;

    // Commit phase: runs single-threaded in the barrier completion. All
    // of the step's updates are applied (write-through) before any GPU
    // can enter the next step — the stall P²F is designed to hide.
    std::barrier step_barrier(
        static_cast<std::ptrdiff_t>(n_gpus), [&]() noexcept {
            const auto commit_start = std::chrono::steady_clock::now();
            // relaxed: only this committer thread advances the step, so
            // its own prior store is always visible to it.
            const Step s = current_step.load(std::memory_order_relaxed);
            pending.clear();
            for (std::uint32_t g = 0; g < n_gpus; ++g) {
                const std::vector<Key> &keys = trace.KeysFor(s, g);
                for (std::uint32_t r = 0; r < keys.size(); ++r)
                    pending.push_back(
                        PendingRef{keys[r], static_cast<GpuId>(g), r});
            }
            // Canonical order: (key, src); per-row application order then
            // matches the single-threaded oracle exactly.
            std::sort(pending.begin(), pending.end(),
                      [](const PendingRef &a, const PendingRef &b) {
                          return a.key != b.key ? a.key < b.key
                                                : a.src < b.src;
                      });
            for (std::size_t i = 0; i < pending.size();) {
                const Key key = pending[i].key;
                run_grads.clear();
                for (; i < pending.size() && pending[i].key == key; ++i) {
                    run_grads.push_back(
                        grad_slots[pending[i].src].data() +
                        static_cast<std::size_t>(pending[i].row) *
                            config.dim);
                }
                table.ApplyGradients(key, run_grads.data(), run_grads.size(),
                                     engine.optimizer());
                updates_applied += run_grads.size();
                if (mode != SyncMode::kNoCache) {
                    // Refresh the owner's cached copy with the committed
                    // row, read in place: every trainer is parked.
                    caches[ownership.OwnerOf(key)]->UpdateIfPresent(
                        key, table.Row(key));
                }
            }
            const auto commit_end = std::chrono::steady_clock::now();
            const double commit = Seconds(commit_start, commit_end);
            commit_seconds_total += commit;
            commit_per_step.Add(commit);
            if (step_hook)
                step_hook(s);
            current_step.store(s + 1, std::memory_order_release);
        });

    const auto run_start = std::chrono::steady_clock::now();
    std::vector<std::thread> trainers;
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        trainers.emplace_back([&, g] {
            std::vector<float> values;
            // The commit reads this GPU's gradients from its slot.
            std::vector<float> &grads = grad_slots[g];
            for (Step s = 0; s < n_steps; ++s) {
                const std::vector<Key> &keys = trace.KeysFor(s, g);
                values.resize(keys.size() * config.dim);
                grads.assign(keys.size() * config.dim, 0.0f);
                for (std::size_t i = 0; i < keys.size(); ++i) {
                    const Key key = keys[i];
                    float *out = values.data() + i * config.dim;
                    switch (mode) {
                      case SyncMode::kNoCache:
                        table.ReadRow(key, out);
                        // relaxed: monotonic stat counter, read after
                        // joins.
                        host_reads.fetch_add(1, std::memory_order_relaxed);
                        break;
                      case SyncMode::kCached: {
                        // Route to the owner GPU's cache shard — a remote
                        // all_to_all query when the owner differs.
                        const GpuId owner = ownership.OwnerOf(key);
                        if (owner != g) {
                            // relaxed: monotonic stat counter, read
                            // after joins.
                            remote_queries.fetch_add(
                                1, std::memory_order_relaxed);
                        }
                        if (!caches[owner]->TryGet(key, out)) {
                            table.ReadRow(key, out);
                            // relaxed: monotonic stat counter, read
                            // after joins.
                            host_reads.fetch_add(
                                1, std::memory_order_relaxed);
                            caches[owner]->Put(key, out);
                        }
                        break;
                      }
                      case SyncMode::kFrugalSync: {
                        const GpuId owner = ownership.OwnerOf(key);
                        if (owner == g) {
                            if (!caches[g]->TryGet(key, out)) {
                                table.ReadRow(key, out);
                                // relaxed: monotonic stat counter, read
                                // after joins.
                                host_reads.fetch_add(
                                    1, std::memory_order_relaxed);
                                caches[g]->Put(key, out);
                            }
                        } else {
                            // Direct UVA host read; never cached locally.
                            table.ReadRow(key, out);
                            // relaxed: monotonic stat counter, read
                            // after joins.
                            host_reads.fetch_add(
                                1, std::memory_order_relaxed);
                        }
                        break;
                      }
                    }
                }

                grad_fn(g, s, keys, values, &grads);
                step_barrier.arrive_and_wait();
            }
        });
    }
    for (auto &t : trainers)
        t.join();
    const auto run_end = std::chrono::steady_clock::now();

    report.wall_seconds = Seconds(run_start, run_end);
    report.stall_seconds_total = commit_seconds_total;
    report.stall_per_step = commit_per_step;
    if (mode != SyncMode::kNoCache) {
        for (std::uint32_t g = 0; g < n_gpus; ++g)
            report.cache += caches[g]->stats();
    }
    report.host_reads = host_reads.load();
    report.remote_cache_queries = remote_queries.load();
    report.updates_emitted = updates_applied;
    report.updates_applied = updates_applied;
    return report;
}

}  // namespace engine_internal
}  // namespace frugal
