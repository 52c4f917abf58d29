/**
 * @file
 * The full Frugal system (§3): trainer threads with the P²F gate, a
 * controller (prefetch thread, N flush threads), private sharded GPU
 * caches, UVA-style direct host reads, and the two-level PQ scheduling
 * proactive flushes.
 *
 * Thread roles (Fig. 5), each a stage method of the run's Pipeline
 * (frugal_engine.cc):
 *  - n trainer threads: gate on `PQ.top() > s`, gather (local cache for
 *    owned keys, host memory for the rest), run the model callback into
 *    that GPU's slot on the staging board, and arrive at the step
 *    barrier. The barrier's completion, run by one of them while the
 *    rest are parked, executes the step's registration plan: it moves
 *    the step's ⟨key, step, Δ⟩ records into g-entries/W sets and
 *    adjusts PQ priorities. Registering only there,
 *    once every GPU has finished the step, matters: removing step s
 *    from an R set while another GPU is still executing step s would
 *    let a flush expose a post-step value mid-step (a race the paper's
 *    proof implicitly excludes). The paper's controller has a drain
 *    role for this; here the next step must wait for the registration
 *    anyway, so it runs where the trainers already wait;
 *  - 1 prefetch thread: walks the trace `L` steps ahead of training,
 *    plans each step's registration (its records in (key, src) order,
 *    its unique keys and their g-entries) and registers R-set entries
 *    (the sample queue);
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
