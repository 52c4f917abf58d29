/**
 * @file
 * The benchmark's three training workloads (README.md says why each
 * exists). A workload is generated from its seed alone; the engine
 * receives only the generated trace and the model callbacks.
 */
#ifndef FRUGAL_PERFBENCH_WORKLOADS_H_
#define FRUGAL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/trace.h"
#include "models/grad_fn.h"
#include "runtime/engine.h"

namespace perfbench {

/** One fresh model instance bound to a workload's data. */
struct Model
{
    frugal::GradFn grad_fn;
    /** Empty for the embedding-only task. */
    frugal::StepHook step_hook;
    /** Per-step training loss; nullptr when the model keeps none. */
    const std::vector<double> *losses = nullptr;
    /** Keeps the model object behind the callbacks alive. */
    std::shared_ptr<void> owner;
};

/** A generated workload: engine settings, key trace and model factory. */
struct Workload
{
    std::string name;
    frugal::EngineConfig config;
    /** Training samples per synchronous step, summed over GPUs. */
    std::size_t samples_per_step = 0;
    /** Owns (or aliases into) the data the model callbacks read. */
    std::shared_ptr<const frugal::Trace> trace;
    std::function<Model()> make_model;
};

/** Names accepted by MakeWorkload, in reporting order. */
const std::vector<std::string> &WorkloadNames();

/** Generates workload `name` from `seed`; throws std::invalid_argument
 *  for an unknown name. */
Workload MakeWorkload(const std::string &name, std::uint64_t seed);

}  // namespace perfbench

#endif  // FRUGAL_PERFBENCH_WORKLOADS_H_
