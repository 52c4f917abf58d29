/**
 * @file
 * The full Frugal system (§3): trainer threads with the P²F gate, a
 * controller (prefetch thread, staging-drain thread, N flush threads),
 * private sharded GPU caches, UVA-style direct host reads, and the
 * two-level PQ scheduling proactive flushes.
 *
 * Thread roles (Fig. 5), each a stage method of the run's Pipeline
 * (frugal_engine.cc):
 *  - n trainer threads: gate on `PQ.top() > s`, gather (local cache for
 *    owned keys, host memory for the rest), run the model callback, and
 *    emit one ⟨key, step, Δ⟩ batch per (step, GPU) into the update
 *    staging queue (the batch doubles as the GPU's end-of-step marker);
 *  - 1 prefetch thread: walks the trace `L` steps ahead of training and
 *    registers R-set entries (the sample queue);
 *  - 1 drain thread: moves staged updates into g-entries/W sets and
 *    adjusts PQ priorities. A step's records are held back until all of
 *    its end markers arrive: removing step s from an R set while another
 *    GPU is still executing step s would let a flush expose a post-step
 *    value mid-step (a race the paper's proof implicitly excludes);
 *  - `flush_threads` flush threads: claim min-priority g-entries, apply
 *    their W sets to host memory, refresh the owner GPU's cached copy
 *    ("H2D"), and wake the gate. Gate-blocked trainers and the
 *    watchdog's reclaim of a dead flush thread's claims apply through
 *    the same claim-apply path.
 */
#ifndef FRUGAL_RUNTIME_FRUGAL_ENGINE_H_
#define FRUGAL_RUNTIME_FRUGAL_ENGINE_H_

#include "runtime/engine.h"

namespace frugal {

/** The proactive-flushing engine (the paper's contribution). */
class FrugalEngine final : public Engine
{
  public:
    explicit FrugalEngine(const EngineConfig &config) : Engine(config) {}

    RunReport Run(const Trace &trace, const GradFn &grad_fn,
                  const StepHook &step_hook = {}) override;

    std::string Name() const override { return "frugal"; }
};

}  // namespace frugal

#endif  // FRUGAL_RUNTIME_FRUGAL_ENGINE_H_
