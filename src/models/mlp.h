/**
 * @file
 * A dense feed-forward network with ReLU hidden layers and a sigmoid
 * output trained with binary cross-entropy — the DNN part of DLRM (§4.1:
 * "a fully connected network with the structure of 512-512-256-1").
 *
 * The implementation is a real forward/backward pass on CPU floats;
 * gradient-check tests validate it against finite differences.
 * TrainExample and Predict are the scalar per-example reference;
 * TrainBatch and PredictBatch run blocks of kLanes examples, one example
 * per SIMD lane, on the host's kernel set (models/mlp_kernels.h),
 * bit-identical to the reference (DESIGN.md §8, "Batched MLP kernels").
 * Multi-GPU data parallelism is modelled by ReplicatedMlp: one replica
 * per trainer accumulates local gradients, and a single-threaded step
 * hook averages and applies them to every replica (the all-reduce of
 * real systems).
 */
#ifndef FRUGAL_MODELS_MLP_H_
#define FRUGAL_MODELS_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace frugal {

struct MlpKernels;  // models/mlp_kernels.h

/** Architecture + training hyper-parameters of an Mlp. */
struct MlpConfig
{
    /** Layer widths from input to last hidden; the output neuron (width
     *  1, sigmoid) is implicit. E.g. {64, 512, 512, 256} is DLRM's
     *  512-512-256-1 top MLP over a 64-wide input. */
    std::vector<std::size_t> layers;
    float learning_rate = 0.05f;
    std::uint64_t seed = 1;
};

/** Fully connected ReLU network with sigmoid/BCE head. */
class Mlp
{
  public:
    /** Examples per block of the batched paths: one per SIMD lane. */
    static constexpr std::size_t kLanes = 8;

    explicit Mlp(const MlpConfig &config);
    /** Runs the batched paths on `kernels`, one of the sets of
     *  models/mlp_kernels.h (the one-argument form takes the host's). */
    Mlp(const MlpConfig &config, const MlpKernels &kernels);

    /** Predicted probability for one input (no gradient bookkeeping). */
    float Predict(const float *x) const;

    /**
     * Predicted probabilities of the `n` rows of `x` (input_dim() floats
     * each) into `probs`, bit-identical to one Predict call per row. Not
     * const: it runs in the batch scratch.
     */
    void PredictBatch(const float *x, std::size_t n, float *probs);

    /**
     * Forward + backward for one example. Accumulates parameter
     * gradients internally and adds dL/dx into `grad_x` (size
     * input_dim()), which carries the loss signal into the embeddings.
     * @return the BCE loss of this example.
     */
    float TrainExample(const float *x, float label, float *grad_x);

    /**
     * Forward + backward for the `n` rows of `x` (input_dim() floats
     * each), bit-identical to `n` in-order TrainExample calls: the same
     * accumulated gradients, the same dL/dx added into the rows of
     * `grad_x`, and each example's loss in `losses[0..n)`.
     */
    void TrainBatch(const float *x, const float *labels, std::size_t n,
                    float *grad_x, float *losses);

    /**
     * Applies the accumulated gradients, scaled by `scale` (1/examples
     * for a mean-gradient step), then clears them.
     */
    void ApplyAccumulatedGradients(float scale);

    /** Accumulated parameter gradients (flattened; for all-reduce). */
    std::vector<float> &gradients() { return grads_; }
    const std::vector<float> &gradients() const { return grads_; }

    /** Flattened parameters (weights then biases per layer). */
    std::vector<float> &parameters() { return params_; }
    const std::vector<float> &parameters() const { return params_; }

    std::size_t input_dim() const { return config_.layers.front(); }
    float learning_rate() const { return config_.learning_rate; }
    std::size_t parameter_count() const { return params_.size(); }

    /** Re-initialises parameters from the seed and clears gradients. */
    void Reset();

  private:
    struct LayerShape
    {
        std::size_t in = 0;
        std::size_t out = 0;
        std::size_t weight_offset = 0;  ///< into params_/grads_
        std::size_t bias_offset = 0;
        /** Into block_acts_: the layer's input, then (contiguous) its
         *  output. */
        std::size_t block_in = 0;
        /** Into block_rows_: the layer's input as rows (hidden layers). */
        std::size_t block_rows = 0;
    };

    /** Forward pass filling the per-layer activations. */
    float ForwardInternal(const float *x,
                          std::vector<std::vector<float>> &acts) const;

    /** Batched forward of `lanes` <= kLanes rows of `x` into block_acts_;
     *  the unused lanes compute on zeros and are ignored. */
    void ForwardBlock(const float *x, std::size_t lanes);

    /** TrainBatch for one block of `lanes` <= kLanes rows. */
    void TrainBlock(const float *x, const float *labels, std::size_t lanes,
                    float *grad_x, float *losses);

    MlpConfig config_;
    const MlpKernels *kernels_;
    std::vector<LayerShape> shapes_;  ///< hidden layers + output layer
    std::vector<float> params_;
    std::vector<float> grads_;
    // Scratch reused across TrainExample calls (single-threaded use).
    std::vector<std::vector<float>> acts_;
    std::vector<float> delta_;
    std::vector<float> delta_next_;
    // Batch scratch, sized once: every layer's activations
    // [feature][lane], the hidden layers' inputs again as [lane][feature]
    // rows, and two [feature][lane] delta buffers.
    std::vector<float> block_acts_;
    std::vector<float> block_rows_;
    std::vector<float> block_delta_;
    std::vector<float> block_delta_next_;
};

/** Data-parallel MLP replicas with deterministic gradient averaging. */
class ReplicatedMlp
{
  public:
    ReplicatedMlp(const MlpConfig &config, std::uint32_t replicas);
    /** Replicas (and the all-reduce) on `kernels`, as Mlp's. */
    ReplicatedMlp(const MlpConfig &config, std::uint32_t replicas,
                  const MlpKernels &kernels);

    /** Replica for trainer `g`; safe for concurrent use across distinct
     *  replicas. */
    Mlp &replica(std::uint32_t g) { return *replicas_[g]; }

    /**
     * The step hook body, one element-wise pass: sums the replicas'
     * accumulated gradients in replica order, applies the same mean step
     * to every replica (keeping them bit-identical), and clears the
     * accumulators.
     * @param examples_total examples contributing this step (the mean
     *        gradient divisor).
     */
    void AllReduceAndStep(std::size_t examples_total);

    void Reset();

    std::uint32_t replica_count() const
    {
        return static_cast<std::uint32_t>(replicas_.size());
    }

  private:
    const MlpKernels *kernels_;
    std::vector<std::unique_ptr<Mlp>> replicas_;
};

}  // namespace frugal

#endif  // FRUGAL_MODELS_MLP_H_
