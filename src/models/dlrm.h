/**
 * @file
 * DLRM (Deep Learning Recommendation Model, Naumov et al.) — the REC
 * model of the paper's evaluation (§4.1: embedding dim 32, top MLP
 * 512-512-256-1).
 *
 * Architecture here: one embedding lookup per categorical feature field,
 * features concatenated into the top MLP's input, sigmoid/BCE head.
 * (The original's pairwise-interaction layer is folded into the MLP —
 * Frugal's techniques only touch the embedding layer, which is kept
 * faithful: one lookup + one gradient per feature per sample.)
 *
 * The model plugs into any Engine through a GradFn bound to a
 * DlrmWorkload: the workload fixes the sample stream and the mapping from
 * samples to each sub-batch's deduplicated key list.
 */
#ifndef FRUGAL_MODELS_DLRM_H_
#define FRUGAL_MODELS_DLRM_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "data/rec_dataset.h"
#include "data/trace.h"
#include "models/grad_fn.h"
#include "models/mlp.h"
#include "table/embedding_table.h"

namespace frugal {

/** A fixed DLRM training workload: samples + their key-trace view. */
struct DlrmWorkload
{
    Trace trace{{}, 0, 1};
    /** samples[step][gpu] — the raw samples of each sub-batch. */
    std::vector<std::vector<std::vector<RecSample>>> samples;
    /** key_idx[step][gpu][sample][feature] — index of that feature's key
     *  in trace.KeysFor(step, gpu). */
    std::vector<std::vector<std::vector<std::vector<std::uint32_t>>>>
        key_idx;

    /** Draws `steps × n_gpus × samples_per_gpu` samples from `gen`. */
    static DlrmWorkload Build(RecDatasetGenerator &gen, std::size_t steps,
                              std::uint32_t n_gpus,
                              std::size_t samples_per_gpu);
};

/** Configuration of a DLRM instance. */
struct DlrmConfig
{
    std::uint32_t n_features = 0;
    std::size_t dim = 32;
    /** Hidden widths of the top MLP (paper: {512, 512, 256}). */
    std::vector<std::size_t> hidden = {512, 512, 256};
    float dense_learning_rate = 0.05f;
    std::uint64_t seed = 1;
    std::uint32_t n_gpus = 1;
};

/** The dense part of DLRM plus the glue that feeds engines. */
class DlrmModel
{
  public:
    explicit DlrmModel(const DlrmConfig &config);

    /** Gradient callback for Engine::Run; `workload` must outlive it. */
    GradFn BindGradFn(const DlrmWorkload &workload);

    /** Step hook: dense all-reduce + loss bookkeeping. */
    StepHook BindStepHook();

    /** Mean training loss of each completed step. */
    const std::vector<double> &loss_history() const { return losses_; }

    /** Mean loss over the first/last `window` steps (convergence tests). */
    double MeanLossOverFirst(std::size_t window) const;
    double MeanLossOverLast(std::size_t window) const;

    /**
     * Held-out AUC of the current model: draws `n_samples` fresh samples
     * from `gen`, gathers their embeddings from `table`, and scores them
     * in blocks with dense replica 0 (all replicas are identical between
     * steps). Not concurrent with training: it uses replica 0's scratch.
     */
    double EvaluateAuc(const HostEmbeddingTable &table,
                       RecDatasetGenerator &gen, std::size_t n_samples);

    /** Restores dense parameters and clears the loss history. */
    void Reset();

  private:
    /** One trainer's state, alone on its cache lines. */
    struct ReplicaSlot
    {
        double loss_accum = 0.0;   ///< current step
        std::size_t examples = 0;  ///< current step
        /** Mlp::kLanes input rows and their dL/dx, sized once. */
        std::vector<float> x;
        std::vector<float> grad_x;
    };

    /** The grad callback body: trains `gpu`'s sub-batch of `step` in
     *  blocks of Mlp::kLanes examples. */
    void TrainSubBatch(const DlrmWorkload &workload, GpuId gpu, Step step,
                       const std::vector<float> &values,
                       std::vector<float> *grads);

    DlrmConfig config_;
    ReplicatedMlp mlp_;
    std::vector<CacheAligned<ReplicaSlot>> slots_;  ///< per GPU
    std::vector<double> losses_;
};

}  // namespace frugal

#endif  // FRUGAL_MODELS_DLRM_H_
