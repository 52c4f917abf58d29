#include "models/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace frugal {

namespace {

float
Sigmoid(float z)
{
    return 1.0f / (1.0f + std::exp(-z));
}

float
BceLoss(float p, float label)
{
    const float eps = 1e-7f;
    return label > 0.5f ? -std::log(p + eps) : -std::log(1.0f - p + eps);
}

// ---------------------------------------------------------------------
// Batched kernels (DESIGN.md §8, "Batched MLP kernels"). A block holds
// Mlp::kLanes examples; activations and deltas are [feature][lane], so
// one F4 holds one feature of four examples. Each lane performs the
// scalar reference's operations in the reference's order: no sum is
// split or reassociated, only interleaved with the other lanes' sums.
// ---------------------------------------------------------------------

constexpr std::size_t kLanes = Mlp::kLanes;

/** Four floats, element-wise arithmetic (GCC/Clang vector extension).
 *  A block's lanes are two of them: lanes 0-3 and lanes 4-7. */
typedef float F4 __attribute__((vector_size(16)));
static_assert(kLanes == 2 * sizeof(F4) / sizeof(float));

inline F4
Load4(const float *p)
{
    F4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
Store4(float *p, F4 v)
{
    std::memcpy(p, &v, sizeof v);
}

inline F4
Splat4(float s)
{
    return F4{s, s, s, s};
}

/** Sums per register block (output rows forward, input columns
 *  backward): kRows × kLanes accumulators take 8 of the 16 SSE
 *  registers, leaving room for the operands. */
constexpr std::size_t kRows = 4;

/** out[o][lane] = b[o] + Σ_i w[o][i]·in[i][lane], i ascending (the
 *  reference's dot product per lane). */
void
ForwardLayer(const float *__restrict w, const float *__restrict b,
             const float *__restrict in, float *__restrict out,
             std::size_t n_in, std::size_t n_out)
{
    std::size_t o = 0;
    for (; o + kRows <= n_out; o += kRows) {
        const float *w0 = w + o * n_in;
        const float *w1 = w0 + n_in;
        const float *w2 = w1 + n_in;
        const float *w3 = w2 + n_in;
        F4 z0a = Splat4(b[o]), z0b = z0a;
        F4 z1a = Splat4(b[o + 1]), z1b = z1a;
        F4 z2a = Splat4(b[o + 2]), z2b = z2a;
        F4 z3a = Splat4(b[o + 3]), z3b = z3a;
        for (std::size_t i = 0; i < n_in; ++i) {
            const F4 xa = Load4(in + i * kLanes);
            const F4 xb = Load4(in + i * kLanes + 4);
            z0a += w0[i] * xa;
            z0b += w0[i] * xb;
            z1a += w1[i] * xa;
            z1b += w1[i] * xb;
            z2a += w2[i] * xa;
            z2b += w2[i] * xb;
            z3a += w3[i] * xa;
            z3b += w3[i] * xb;
        }
        float *dst = out + o * kLanes;
        Store4(dst, z0a);
        Store4(dst + 4, z0b);
        Store4(dst + 8, z1a);
        Store4(dst + 12, z1b);
        Store4(dst + 16, z2a);
        Store4(dst + 20, z2b);
        Store4(dst + 24, z3a);
        Store4(dst + 28, z3b);
    }
    for (; o < n_out; ++o) {
        const float *wr = w + o * n_in;
        F4 za = Splat4(b[o]), zb = za;
        for (std::size_t i = 0; i < n_in; ++i) {
            za += wr[i] * Load4(in + i * kLanes);
            zb += wr[i] * Load4(in + i * kLanes + 4);
        }
        Store4(out + o * kLanes, za);
        Store4(out + o * kLanes + 4, zb);
    }
}

/** delta_in[i][lane] = Σ_o delta[o][lane]·w[o][i], o ascending from +0
 *  (the reference's delta_next sums per lane). */
void
BackwardInputs(const float *__restrict w, const float *__restrict delta,
               float *__restrict delta_in, std::size_t n_in,
               std::size_t n_out)
{
    std::size_t i = 0;
    for (; i + kRows <= n_in; i += kRows) {
        F4 s0a{}, s0b{}, s1a{}, s1b{}, s2a{}, s2b{}, s3a{}, s3b{};
        for (std::size_t o = 0; o < n_out; ++o) {
            const F4 da = Load4(delta + o * kLanes);
            const F4 db = Load4(delta + o * kLanes + 4);
            const float *wr = w + o * n_in + i;
            s0a += da * wr[0];
            s0b += db * wr[0];
            s1a += da * wr[1];
            s1b += db * wr[1];
            s2a += da * wr[2];
            s2b += db * wr[2];
            s3a += da * wr[3];
            s3b += db * wr[3];
        }
        float *dst = delta_in + i * kLanes;
        Store4(dst, s0a);
        Store4(dst + 4, s0b);
        Store4(dst + 8, s1a);
        Store4(dst + 12, s1b);
        Store4(dst + 16, s2a);
        Store4(dst + 20, s2b);
        Store4(dst + 24, s3a);
        Store4(dst + 28, s3b);
    }
    for (; i < n_in; ++i) {
        F4 sa{}, sb{};
        for (std::size_t o = 0; o < n_out; ++o) {
            sa += Load4(delta + o * kLanes) * w[o * n_in + i];
            sb += Load4(delta + o * kLanes + 4) * w[o * n_in + i];
        }
        Store4(delta_in + i * kLanes, sa);
        Store4(delta_in + i * kLanes + 4, sb);
    }
}

/** gw[o][i] += delta[o][e]·rows[e][i] and gb[o] += delta[o][e] for the
 *  lanes e < `lanes` in order: the reference's per-example
 *  accumulation, vectorised over 16 i at a time (four independent
 *  chains). */
void
AccumulateGradients(float *__restrict gw, float *__restrict gb,
                    const float *__restrict delta,
                    const float *__restrict rows, std::size_t n_in,
                    std::size_t n_out, std::size_t lanes)
{
    for (std::size_t o = 0; o < n_out; ++o) {
        float *g = gw + o * n_in;
        const float *d = delta + o * kLanes;
        std::size_t i = 0;
        for (; i + 16 <= n_in; i += 16) {
            F4 a0 = Load4(g + i), a1 = Load4(g + i + 4);
            F4 a2 = Load4(g + i + 8), a3 = Load4(g + i + 12);
            for (std::size_t e = 0; e < lanes; ++e) {
                const float *r = rows + e * n_in + i;
                a0 += d[e] * Load4(r);
                a1 += d[e] * Load4(r + 4);
                a2 += d[e] * Load4(r + 8);
                a3 += d[e] * Load4(r + 12);
            }
            Store4(g + i, a0);
            Store4(g + i + 4, a1);
            Store4(g + i + 8, a2);
            Store4(g + i + 12, a3);
        }
        for (; i < n_in; ++i) {
            float acc = g[i];
            for (std::size_t e = 0; e < lanes; ++e)
                acc += d[e] * rows[e * n_in + i];
            g[i] = acc;
        }
        for (std::size_t e = 0; e < lanes; ++e)
            gb[o] += d[e];
    }
}

}  // namespace

Mlp::Mlp(const MlpConfig &config) : config_(config)
{
    FRUGAL_CHECK_MSG(config.layers.size() >= 1,
                     "need at least an input width");
    // Hidden layers between consecutive widths, plus the 1-wide output.
    std::size_t offset = 0;
    for (std::size_t l = 0; l + 1 < config_.layers.size(); ++l) {
        LayerShape shape;
        shape.in = config_.layers[l];
        shape.out = config_.layers[l + 1];
        shape.weight_offset = offset;
        offset += shape.in * shape.out;
        shape.bias_offset = offset;
        offset += shape.out;
        shapes_.push_back(shape);
    }
    LayerShape head;
    head.in = config_.layers.back();
    head.out = 1;
    head.weight_offset = offset;
    offset += head.in;
    head.bias_offset = offset;
    offset += 1;
    shapes_.push_back(head);

    params_.resize(offset);
    grads_.assign(offset, 0.0f);
    acts_.resize(shapes_.size() + 1);

    // Batch scratch: layer l's output is layer l+1's input, so one
    // [feature][lane] buffer holds every activation back to back.
    std::size_t acts = 0;
    std::size_t rows = 0;
    std::size_t widest = 0;
    for (std::size_t l = 0; l < shapes_.size(); ++l) {
        LayerShape &shape = shapes_[l];
        shape.block_in = acts;
        acts += shape.in * kLanes;
        if (l > 0) {
            shape.block_rows = rows;
            rows += shape.in * kLanes;
        }
        widest = std::max(widest, shape.in);
    }
    block_acts_.assign(acts + kLanes, 0.0f);  // + the logits
    block_rows_.assign(rows, 0.0f);
    block_delta_.assign(widest * kLanes, 0.0f);
    block_delta_next_.assign(widest * kLanes, 0.0f);
    Reset();
}

void
Mlp::Reset()
{
    Rng rng(config_.seed);
    for (const LayerShape &shape : shapes_) {
        // He-style init scaled by fan-in.
        const float scale =
            std::sqrt(2.0f / static_cast<float>(shape.in));
        for (std::size_t i = 0; i < shape.in * shape.out; ++i) {
            params_[shape.weight_offset + i] =
                static_cast<float>(rng.NextGaussian(0.0, scale));
        }
        for (std::size_t i = 0; i < shape.out; ++i)
            params_[shape.bias_offset + i] = 0.0f;
    }
    grads_.assign(params_.size(), 0.0f);
}

float
Mlp::ForwardInternal(const float *x,
                     std::vector<std::vector<float>> &acts) const
{
    acts[0].assign(x, x + input_dim());
    for (std::size_t l = 0; l < shapes_.size(); ++l) {
        const LayerShape &shape = shapes_[l];
        acts[l + 1].assign(shape.out, 0.0f);
        const float *w = params_.data() + shape.weight_offset;
        const float *b = params_.data() + shape.bias_offset;
        const float *in = acts[l].data();
        float *out = acts[l + 1].data();
        for (std::size_t o = 0; o < shape.out; ++o) {
            float z = b[o];
            const float *wrow = w + o * shape.in;
            for (std::size_t i = 0; i < shape.in; ++i)
                z += wrow[i] * in[i];
            const bool is_head = (l + 1 == shapes_.size());
            out[o] = is_head ? z : (z > 0.0f ? z : 0.0f);  // ReLU hidden
        }
    }
    return acts.back()[0];  // pre-sigmoid logit
}

float
Mlp::Predict(const float *x) const
{
    std::vector<std::vector<float>> acts(shapes_.size() + 1);
    return Sigmoid(ForwardInternal(x, acts));
}

float
Mlp::TrainExample(const float *x, float label, float *grad_x)
{
    const float logit = ForwardInternal(x, acts_);
    const float p = Sigmoid(logit);
    const float loss = BceLoss(p, label);

    // dL/dlogit for sigmoid+BCE.
    delta_.assign(1, p - label);
    for (std::size_t l = shapes_.size(); l-- > 0;) {
        const LayerShape &shape = shapes_[l];
        const float *in = acts_[l].data();
        float *gw = grads_.data() + shape.weight_offset;
        float *gb = grads_.data() + shape.bias_offset;
        const float *w = params_.data() + shape.weight_offset;
        delta_next_.assign(shape.in, 0.0f);
        for (std::size_t o = 0; o < shape.out; ++o) {
            const float d = delta_[o];
            if (d == 0.0f)
                continue;
            float *gwrow = gw + o * shape.in;
            const float *wrow = w + o * shape.in;
            for (std::size_t i = 0; i < shape.in; ++i) {
                gwrow[i] += d * in[i];
                delta_next_[i] += d * wrow[i];
            }
            gb[o] += d;
        }
        if (l > 0) {
            // ReLU derivative on the layer input (which is layer l-1's
            // post-activation output).
            for (std::size_t i = 0; i < shape.in; ++i) {
                if (acts_[l][i] <= 0.0f)
                    delta_next_[i] = 0.0f;
            }
        }
        delta_.swap(delta_next_);
    }
    for (std::size_t i = 0; i < input_dim(); ++i)
        grad_x[i] += delta_[i];
    return loss;
}

void
Mlp::ForwardBlock(const float *x, std::size_t lanes)
{
    // Transpose the rows into [feature][lane]; the unused lanes get zeros
    // so that they compute on finite values.
    const std::size_t in = input_dim();
    float *acts = block_acts_.data();
    for (std::size_t i = 0; i < in; ++i) {
        for (std::size_t e = 0; e < kLanes; ++e)
            acts[i * kLanes + e] = e < lanes ? x[e * in + i] : 0.0f;
    }
    for (std::size_t l = 0; l < shapes_.size(); ++l) {
        const LayerShape &shape = shapes_[l];
        const float *layer_in = acts + shape.block_in;
        float *layer_out = acts + shape.block_in + shape.in * kLanes;
        ForwardLayer(params_.data() + shape.weight_offset,
                     params_.data() + shape.bias_offset, layer_in,
                     layer_out, shape.in, shape.out);
        if (l + 1 == shapes_.size())
            break;  // the head's output is the logit
        for (std::size_t j = 0; j < shape.out * kLanes; ++j) {
            const float z = layer_out[j];
            layer_out[j] = z > 0.0f ? z : 0.0f;  // ReLU hidden
        }
        // The next layer's weight gradients read its input as rows.
        const LayerShape &next = shapes_[l + 1];
        float *rows = block_rows_.data() + next.block_rows;
        for (std::size_t e = 0; e < lanes; ++e) {
            for (std::size_t i = 0; i < next.in; ++i)
                rows[e * next.in + i] = layer_out[i * kLanes + e];
        }
    }
}

void
Mlp::PredictBatch(const float *x, std::size_t n, float *probs)
{
    const float *logits = block_acts_.data() + block_acts_.size() - kLanes;
    for (std::size_t first = 0; first < n; first += kLanes) {
        const std::size_t lanes = std::min(kLanes, n - first);
        ForwardBlock(x + first * input_dim(), lanes);
        for (std::size_t e = 0; e < lanes; ++e)
            probs[first + e] = Sigmoid(logits[e]);
    }
}

void
Mlp::TrainBatch(const float *x, const float *labels, std::size_t n,
                float *grad_x, float *losses)
{
    const std::size_t in = input_dim();
    for (std::size_t first = 0; first < n; first += kLanes) {
        TrainBlock(x + first * in, labels + first,
                   std::min(kLanes, n - first), grad_x + first * in,
                   losses + first);
    }
}

void
Mlp::TrainBlock(const float *x, const float *labels, std::size_t lanes,
                float *grad_x, float *losses)
{
    ForwardBlock(x, lanes);
    const float *acts = block_acts_.data();
    const float *logits = acts + block_acts_.size() - kLanes;
    float *delta = block_delta_.data();
    float *delta_next = block_delta_next_.data();
    // dL/dlogit for sigmoid+BCE; unused lanes carry zeros.
    for (std::size_t e = 0; e < kLanes; ++e) {
        if (e < lanes) {
            const float p = Sigmoid(logits[e]);
            losses[e] = BceLoss(p, labels[e]);
            delta[e] = p - labels[e];
        } else {
            delta[e] = 0.0f;
        }
    }
    // The reference skips an example's row o when its delta is 0; here
    // the lane adds 0·w and 0·x instead. No accumulator ever holds -0,
    // so adding ±0 leaves it unchanged (DESIGN.md §8).
    for (std::size_t l = shapes_.size(); l-- > 0;) {
        const LayerShape &shape = shapes_[l];
        const float *rows =
            l == 0 ? x : block_rows_.data() + shape.block_rows;
        AccumulateGradients(grads_.data() + shape.weight_offset,
                            grads_.data() + shape.bias_offset, delta, rows,
                            shape.in, shape.out, lanes);
        BackwardInputs(params_.data() + shape.weight_offset, delta,
                       delta_next, shape.in, shape.out);
        if (l > 0) {
            // ReLU derivative on the layer input (which is layer l-1's
            // post-activation output).
            const float *layer_in = acts + shape.block_in;
            for (std::size_t j = 0; j < shape.in * kLanes; ++j) {
                if (layer_in[j] <= 0.0f)
                    delta_next[j] = 0.0f;
            }
        }
        std::swap(delta, delta_next);
    }
    const std::size_t in = input_dim();
    for (std::size_t e = 0; e < lanes; ++e) {
        for (std::size_t i = 0; i < in; ++i)
            grad_x[e * in + i] += delta[i * kLanes + e];
    }
}

void
Mlp::ApplyAccumulatedGradients(float scale)
{
    const float lr = config_.learning_rate;
    for (std::size_t i = 0; i < params_.size(); ++i)
        params_[i] -= lr * scale * grads_[i];
    grads_.assign(params_.size(), 0.0f);
}

ReplicatedMlp::ReplicatedMlp(const MlpConfig &config,
                             std::uint32_t replicas)
{
    FRUGAL_CHECK(replicas > 0);
    for (std::uint32_t g = 0; g < replicas; ++g)
        replicas_.push_back(std::make_unique<Mlp>(config));
}

void
ReplicatedMlp::AllReduceAndStep(std::size_t examples_total)
{
    if (examples_total == 0)
        return;
    // Every replica shares one config. Each takes the step
    // ApplyAccumulatedGradients takes, `p -= lr * scale * sum`, from the
    // same sum, so replicas stay bit-equal.
    const float lr = replicas_[0]->learning_rate();
    const float scale = 1.0f / static_cast<float>(examples_total);
    const std::size_t n = replicas_[0]->parameter_count();
    constexpr std::size_t kChunk = 1024;  // sums stay in L1
    float sum[kChunk] = {};
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t len = std::min(kChunk, n - base);
        const float *g0 = replicas_[0]->gradients().data() + base;
        std::memcpy(sum, g0, len * sizeof(float));
        for (std::size_t r = 1; r < replicas_.size(); ++r) {
            const float *g = replicas_[r]->gradients().data() + base;
            std::size_t j = 0;
            for (; j + 4 <= len; j += 4)
                Store4(sum + j, Load4(sum + j) + Load4(g + j));
            for (; j < len; ++j)
                sum[j] += g[j];
        }
        for (auto &replica : replicas_) {
            float *p = replica->parameters().data() + base;
            std::size_t j = 0;
            for (; j + 4 <= len; j += 4)
                Store4(p + j, Load4(p + j) - lr * scale * Load4(sum + j));
            for (; j < len; ++j)
                p[j] -= lr * scale * sum[j];
            std::fill_n(replica->gradients().data() + base, len, 0.0f);
        }
    }
}

void
ReplicatedMlp::Reset()
{
    for (auto &replica : replicas_)
        replica->Reset();
}

}  // namespace frugal
