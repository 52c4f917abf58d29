#include "models/dlrm.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "models/auc.h"

namespace frugal {

DlrmWorkload
DlrmWorkload::Build(RecDatasetGenerator &gen, std::size_t steps,
                    std::uint32_t n_gpus, std::size_t samples_per_gpu)
{
    DlrmWorkload workload;
    workload.samples.resize(steps);
    workload.key_idx.resize(steps);
    std::vector<StepKeys> trace_steps(steps);
    for (std::size_t s = 0; s < steps; ++s) {
        workload.samples[s].resize(n_gpus);
        workload.key_idx[s].resize(n_gpus);
        trace_steps[s].per_gpu.resize(n_gpus);
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            auto &samples = workload.samples[s][g];
            auto &indices = workload.key_idx[s][g];
            auto &keys = trace_steps[s].per_gpu[g];
            std::unordered_map<Key, std::uint32_t> key_to_idx;
            samples = gen.NextBatch(samples_per_gpu);
            indices.resize(samples.size());
            for (std::size_t i = 0; i < samples.size(); ++i) {
                indices[i].reserve(samples[i].keys.size());
                for (Key key : samples[i].keys) {
                    auto [it, inserted] = key_to_idx.try_emplace(
                        key,
                        static_cast<std::uint32_t>(keys.size()));
                    if (inserted)
                        keys.push_back(key);
                    indices[i].push_back(it->second);
                }
            }
        }
    }
    workload.trace =
        Trace(std::move(trace_steps), gen.key_space(), n_gpus);
    return workload;
}

DlrmModel::DlrmModel(const DlrmConfig &config)
    : config_(config),
      mlp_(
          [&config] {
              MlpConfig mlp_config;
              mlp_config.layers.push_back(
                  static_cast<std::size_t>(config.n_features) *
                  config.dim);
              for (std::size_t width : config.hidden)
                  mlp_config.layers.push_back(width);
              mlp_config.learning_rate = config.dense_learning_rate;
              mlp_config.seed = config.seed;
              return mlp_config;
          }(),
          config.n_gpus),
      slots_(config.n_gpus)
{
    FRUGAL_CHECK(config.n_features > 0);
    const std::size_t input =
        static_cast<std::size_t>(config.n_features) * config.dim;
    for (auto &slot : slots_) {
        slot->x.assign(Mlp::kLanes * input, 0.0f);
        slot->grad_x.assign(Mlp::kLanes * input, 0.0f);
    }
}

GradFn
DlrmModel::BindGradFn(const DlrmWorkload &workload)
{
    return [this, &workload](GpuId gpu, Step step, const std::vector<Key> &,
                             const std::vector<float> &values,
                             std::vector<float> *grads) {
        TrainSubBatch(workload, gpu, step, values, grads);
    };
}

void
DlrmModel::TrainSubBatch(const DlrmWorkload &workload, GpuId gpu,
                         Step step, const std::vector<float> &values,
                         std::vector<float> *grads)
{
    const std::size_t dim = config_.dim;
    const std::size_t input = config_.n_features * dim;
    const auto &samples = workload.samples[step][gpu];
    const auto &indices = workload.key_idx[step][gpu];
    Mlp &mlp = mlp_.replica(gpu);
    ReplicaSlot &slot = *slots_[gpu];
    float *x = slot.x.data();
    float *gx = slot.grad_x.data();
    float labels[Mlp::kLanes] = {};
    float losses[Mlp::kLanes] = {};
    // Folded locally in example order; the slot is written once a call.
    double loss_accum = slot.loss_accum;
    for (std::size_t first = 0; first < samples.size();
         first += Mlp::kLanes) {
        const std::size_t n = std::min(Mlp::kLanes, samples.size() - first);
        for (std::size_t e = 0; e < n; ++e) {
            // Assemble the concatenated embedding input.
            const auto &fields = indices[first + e];
            for (std::size_t f = 0; f < fields.size(); ++f) {
                const float *src =
                    values.data() + static_cast<std::size_t>(fields[f]) * dim;
                float *dst = x + e * input + f * dim;
                for (std::size_t j = 0; j < dim; ++j)
                    dst[j] = src[j];
            }
            labels[e] = samples[first + e].label;
        }
        std::fill(gx, gx + n * input, 0.0f);
        mlp.TrainBatch(x, labels, n, gx, losses);
        for (std::size_t e = 0; e < n; ++e) {
            loss_accum += losses[e];
            // Scatter dL/dx back onto the (deduplicated) key gradients.
            const auto &fields = indices[first + e];
            for (std::size_t f = 0; f < fields.size(); ++f) {
                const float *src = gx + e * input + f * dim;
                float *dst = grads->data() +
                             static_cast<std::size_t>(fields[f]) * dim;
                for (std::size_t j = 0; j < dim; ++j)
                    dst[j] += src[j];
            }
        }
    }
    slot.loss_accum = loss_accum;
    slot.examples += samples.size();
}

StepHook
DlrmModel::BindStepHook()
{
    return [this](Step) {
        std::size_t total_examples = 0;
        double total_loss = 0.0;
        for (auto &slot : slots_) {
            total_examples += slot->examples;
            total_loss += slot->loss_accum;
            slot->examples = 0;
            slot->loss_accum = 0.0;
        }
        mlp_.AllReduceAndStep(total_examples);
        losses_.push_back(total_examples == 0
                              ? 0.0
                              : total_loss /
                                    static_cast<double>(total_examples));
    };
}

double
DlrmModel::MeanLossOverFirst(std::size_t window) const
{
    window = std::min(window, losses_.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < window; ++i)
        sum += losses_[i];
    return window == 0 ? 0.0 : sum / static_cast<double>(window);
}

double
DlrmModel::MeanLossOverLast(std::size_t window) const
{
    window = std::min(window, losses_.size());
    double sum = 0.0;
    for (std::size_t i = losses_.size() - window; i < losses_.size(); ++i)
        sum += losses_[i];
    return window == 0 ? 0.0 : sum / static_cast<double>(window);
}

double
DlrmModel::EvaluateAuc(const HostEmbeddingTable &table,
                       RecDatasetGenerator &gen, std::size_t n_samples)
{
    const std::size_t dim = config_.dim;
    const std::size_t input = config_.n_features * dim;
    Mlp &mlp = mlp_.replica(0);
    float *x = slots_[0]->x.data();
    std::vector<float> scores(n_samples);
    std::vector<float> labels(n_samples);
    for (std::size_t first = 0; first < n_samples; first += Mlp::kLanes) {
        const std::size_t n = std::min(Mlp::kLanes, n_samples - first);
        for (std::size_t e = 0; e < n; ++e) {
            const RecSample sample = gen.Next();
            for (std::size_t f = 0; f < sample.keys.size(); ++f)
                table.ReadRow(sample.keys[f], x + e * input + f * dim);
            labels[first + e] = sample.label;
        }
        mlp.PredictBatch(x, n, scores.data() + first);
    }
    return ComputeAuc(scores, labels);
}

void
DlrmModel::Reset()
{
    mlp_.Reset();
    losses_.clear();
    for (auto &slot : slots_) {
        slot->loss_accum = 0.0;
        slot->examples = 0;
    }
}

}  // namespace frugal
