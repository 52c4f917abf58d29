#include "models/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "models/mlp_kernels.h"

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
// one lane vector V holds one feature of the block's eight examples.
// Each lane performs the scalar reference's operations in the
// reference's order: no sum is split or reassociated, only interleaved
// with the other lanes' sums.
//
// The kernels are written once, as templates over V, and instantiated
// as two sets (models/mlp_kernels.h): the portable set on two SSE
// vectors, the AVX2 set on one 8-float vector. The templates are always
// inlined into each set's entry points, which carry the set's
// instruction set; no function signature carries an 8-float vector, so
// none depends on the AVX calling convention.
// ---------------------------------------------------------------------

constexpr std::size_t kLanes = Mlp::kLanes;

typedef float F4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));

/** The portable set's lane vector: lanes 0-3 and lanes 4-7. */
struct F4x2
{
    F4 lo, hi;
};
static_assert(sizeof(F4x2) == kLanes * sizeof(float));
static_assert(sizeof(F8) == kLanes * sizeof(float));

inline F4x2
operator*(float s, const F4x2 &v)
{
    return {s * v.lo, s * v.hi};
}

inline F4x2 &
operator+=(F4x2 &a, const F4x2 &b)
{
    a.lo += b.lo;
    a.hi += b.hi;
    return a;
}

inline F4x2 &
operator-=(F4x2 &a, const F4x2 &b)
{
    a.lo -= b.lo;
    a.hi -= b.hi;
    return a;
}

[[gnu::always_inline]] inline void
Load(F4x2 &v, const float *p)
{
    std::memcpy(&v.lo, p, sizeof v.lo);
    std::memcpy(&v.hi, p + 4, sizeof v.hi);
}

[[gnu::always_inline]] inline void
Load(F8 &v, const float *p)
{
    std::memcpy(&v, p, sizeof v);
}

[[gnu::always_inline]] inline void
Store(float *p, const F4x2 &v)
{
    std::memcpy(p, &v.lo, sizeof v.lo);
    std::memcpy(p + 4, &v.hi, sizeof v.hi);
}

[[gnu::always_inline]] inline void
Store(float *p, const F8 &v)
{
    std::memcpy(p, &v, sizeof v);
}

[[gnu::always_inline]] inline void
Splat(F4x2 &v, float s)
{
    v.lo = F4{s, s, s, s};
    v.hi = v.lo;
}

/** Built from two 4-float splats: GCC's 8-float constructor, written
 *  outside AVX code, draws a false -Wmaybe-uninitialized under TSan. */
[[gnu::always_inline]] inline void
Splat(F8 &v, float s)
{
    const F4 half = {s, s, s, s};
    v = __builtin_shufflevector(half, half, 0, 1, 2, 3, 4, 5, 6, 7);
}

/** Floats per lane vector; also the width of the element-wise loops. */
template <class V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(float);

/** Register blocking, one V accumulator per row or column. kRows: output
 *  rows per forward block and input columns per backward block; in
 *  either set they take 8 of the 16 vector registers. kGradVectors: V
 *  per weight-gradient run along i, 16 floats portable and 32 AVX2 (on
 *  a TrainBatch microbenchmark faster than 16 and level with 48, which
 *  leaves tails on DLRM's widths). */
template <class V>
constexpr std::size_t kRows = 4;
template <>
constexpr std::size_t kRows<F8> = 8;
template <class V>
constexpr std::size_t kGradVectors = 2;
template <>
constexpr std::size_t kGradVectors<F8> = 4;

/** Forward rows o..o+R of out[o][lane] = b[o] + Σ_i w[o][i]·in[i][lane],
 *  i ascending (the reference's dot product per lane); `w`, `b` and
 *  `out` point at row o. */
template <class V, std::size_t R>
[[gnu::always_inline]] inline void
ForwardRows(const float *__restrict w, const float *__restrict b,
            const float *__restrict in, float *__restrict out,
            std::size_t n_in)
{
    V z[R];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
        Splat(z[r], b[r]);
    for (std::size_t i = 0; i < n_in; ++i) {
        V x;
        Load(x, in + i * kLanes);
#pragma GCC unroll 16
        for (std::size_t r = 0; r < R; ++r)
            z[r] += w[r * n_in + i] * x;
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
        Store(out + r * kLanes, z[r]);
}

template <class V>
[[gnu::always_inline]] inline void
ForwardLayer(const float *__restrict w, const float *__restrict b,
             const float *__restrict in, float *__restrict out,
             std::size_t n_in, std::size_t n_out)
{
    constexpr std::size_t R = kRows<V>;
    std::size_t o = 0;
    for (; o + R <= n_out; o += R) {
        ForwardRows<V, R>(w + o * n_in, b + o, in, out + o * kLanes,
                          n_in);
    }
    for (; o < n_out; ++o)
        ForwardRows<V, 1>(w + o * n_in, b + o, in, out + o * kLanes, n_in);
}

/** Input columns i..i+R of delta_in[i][lane] = Σ_o delta[o][lane]·w[o][i],
 *  o ascending from +0 (the reference's delta_next sums per lane); `w`
 *  and `delta_in` point at column i. */
template <class V, std::size_t R>
[[gnu::always_inline]] inline void
BackwardColumns(const float *__restrict w, const float *__restrict delta,
                float *__restrict delta_in, std::size_t n_in,
                std::size_t n_out)
{
    V s[R] = {};
    for (std::size_t o = 0; o < n_out; ++o) {
        V d;
        Load(d, delta + o * kLanes);
        const float *wr = w + o * n_in;
#pragma GCC unroll 16
        for (std::size_t r = 0; r < R; ++r)
            s[r] += wr[r] * d;
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
        Store(delta_in + r * kLanes, s[r]);
}

template <class V>
[[gnu::always_inline]] inline void
BackwardInputs(const float *__restrict w, const float *__restrict delta,
               float *__restrict delta_in, std::size_t n_in,
               std::size_t n_out)
{
    constexpr std::size_t R = kRows<V>;
    std::size_t i = 0;
    for (; i + R <= n_in; i += R) {
        BackwardColumns<V, R>(w + i, delta, delta_in + i * kLanes, n_in,
                              n_out);
    }
    for (; i < n_in; ++i) {
        BackwardColumns<V, 1>(w + i, delta, delta_in + i * kLanes, n_in,
                              n_out);
    }
}

/** g[i] += d[e]·rows[e][i] over K vectors of i, for the lanes e < `lanes`
 *  in order: K independent chains. */
template <class V, std::size_t K>
[[gnu::always_inline]] inline void
AccumulateRun(float *__restrict g, const float *__restrict d,
              const float *__restrict rows, std::size_t n_in,
              std::size_t lanes)
{
    constexpr std::size_t W = kWidth<V>;
    V a[K];
#pragma GCC unroll 16
    for (std::size_t k = 0; k < K; ++k)
        Load(a[k], g + k * W);
    for (std::size_t e = 0; e < lanes; ++e) {
        const float *r = rows + e * n_in;
#pragma GCC unroll 16
        for (std::size_t k = 0; k < K; ++k) {
            V x;
            Load(x, r + k * W);
            a[k] += d[e] * x;
        }
    }
#pragma GCC unroll 16
    for (std::size_t k = 0; k < K; ++k)
        Store(g + k * W, a[k]);
}

/** gw[o][i] += delta[o][e]·rows[e][i] and gb[o] += delta[o][e] for the
 *  lanes e < `lanes` in order: the reference's per-example
 *  accumulation, vectorised over i. */
template <class V>
[[gnu::always_inline]] inline void
AccumulateGradients(float *__restrict gw, float *__restrict gb,
                    const float *__restrict delta,
                    const float *__restrict rows, std::size_t n_in,
                    std::size_t n_out, std::size_t lanes)
{
    constexpr std::size_t W = kWidth<V>;
    constexpr std::size_t K = kGradVectors<V>;
    for (std::size_t o = 0; o < n_out; ++o) {
        float *g = gw + o * n_in;
        const float *d = delta + o * kLanes;
        std::size_t i = 0;
        for (; i + K * W <= n_in; i += K * W)
            AccumulateRun<V, K>(g + i, d, rows + i, n_in, lanes);
        for (; i + W <= n_in; i += W)
            AccumulateRun<V, 1>(g + i, d, rows + i, n_in, lanes);
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

/** sum[j] += g[j]: one replica's term of the all-reduce sum. */
template <class V>
[[gnu::always_inline]] inline void
AddInto(float *__restrict sum, const float *__restrict g, std::size_t n)
{
    constexpr std::size_t W = kWidth<V>;
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
        V s, x;
        Load(s, sum + j);
        Load(x, g + j);
        s += x;
        Store(sum + j, s);
    }
    for (; j < n; ++j)
        sum[j] += g[j];
}

/** p[j] -= step * sum[j]: ApplyAccumulatedGradients' expression, with
 *  step = lr * scale evaluated first as there. */
template <class V>
[[gnu::always_inline]] inline void
Descend(float *__restrict p, const float *__restrict sum, float step,
        std::size_t n)
{
    constexpr std::size_t W = kWidth<V>;
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
        V q, s;
        Load(q, p + j);
        Load(s, sum + j);
        q -= step * s;
        Store(p + j, q);
    }
    for (; j < n; ++j)
        p[j] -= step * sum[j];
}

// The portable set.

void
ForwardLayerPortable(const float *w, const float *b, const float *in,
                     float *out, std::size_t n_in, std::size_t n_out)
{
    ForwardLayer<F4x2>(w, b, in, out, n_in, n_out);
}

void
BackwardInputsPortable(const float *w, const float *delta, float *delta_in,
                       std::size_t n_in, std::size_t n_out)
{
    BackwardInputs<F4x2>(w, delta, delta_in, n_in, n_out);
}

void
AccumulateGradientsPortable(float *gw, float *gb, const float *delta,
                            const float *rows, std::size_t n_in,
                            std::size_t n_out, std::size_t lanes)
{
    AccumulateGradients<F4x2>(gw, gb, delta, rows, n_in, n_out, lanes);
}

void
AddIntoPortable(float *sum, const float *g, std::size_t n)
{
    AddInto<F4x2>(sum, g, n);
}

void
DescendPortable(float *p, const float *sum, float step, std::size_t n)
{
    Descend<F4x2>(p, sum, step, n);
}

constexpr MlpKernels kPortableKernels = {
    .forward_layer = ForwardLayerPortable,
    .backward_inputs = BackwardInputsPortable,
    .accumulate_gradients = AccumulateGradientsPortable,
    .add_into = AddIntoPortable,
    .descend = DescendPortable,
};

#if defined(__x86_64__) || defined(__i386__)
// The AVX2 set: the same templates on F8. target("avx2") enables no FMA,
// so no product is fused into its sum (DESIGN.md §8).

[[gnu::target("avx2")]] void
ForwardLayerAvx2(const float *w, const float *b, const float *in,
                 float *out, std::size_t n_in, std::size_t n_out)
{
    ForwardLayer<F8>(w, b, in, out, n_in, n_out);
}

[[gnu::target("avx2")]] void
BackwardInputsAvx2(const float *w, const float *delta, float *delta_in,
                   std::size_t n_in, std::size_t n_out)
{
    BackwardInputs<F8>(w, delta, delta_in, n_in, n_out);
}

[[gnu::target("avx2")]] void
AccumulateGradientsAvx2(float *gw, float *gb, const float *delta,
                        const float *rows, std::size_t n_in,
                        std::size_t n_out, std::size_t lanes)
{
    AccumulateGradients<F8>(gw, gb, delta, rows, n_in, n_out, lanes);
}

[[gnu::target("avx2")]] void
AddIntoAvx2(float *sum, const float *g, std::size_t n)
{
    AddInto<F8>(sum, g, n);
}

[[gnu::target("avx2")]] void
DescendAvx2(float *p, const float *sum, float step, std::size_t n)
{
    Descend<F8>(p, sum, step, n);
}

constexpr MlpKernels kAvx2Kernels = {
    .forward_layer = ForwardLayerAvx2,
    .backward_inputs = BackwardInputsAvx2,
    .accumulate_gradients = AccumulateGradientsAvx2,
    .add_into = AddIntoAvx2,
    .descend = DescendAvx2,
};
#endif

}  // namespace

const MlpKernels &
PortableMlpKernels()
{
    return kPortableKernels;
}

const MlpKernels *
Avx2MlpKernels()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return supported ? &kAvx2Kernels : nullptr;
#else
    return nullptr;
#endif
}

const MlpKernels &
HostMlpKernels()
{
    const MlpKernels *avx2 = Avx2MlpKernels();
    return avx2 != nullptr ? *avx2 : PortableMlpKernels();
}

Mlp::Mlp(const MlpConfig &config) : Mlp(config, HostMlpKernels()) {}

Mlp::Mlp(const MlpConfig &config, const MlpKernels &kernels)
    : config_(config), kernels_(&kernels)
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
        kernels_->forward_layer(params_.data() + shape.weight_offset,
                                params_.data() + shape.bias_offset,
                                layer_in, layer_out, shape.in, shape.out);
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
        kernels_->accumulate_gradients(
            grads_.data() + shape.weight_offset,
            grads_.data() + shape.bias_offset, delta, rows, shape.in,
            shape.out, lanes);
        kernels_->backward_inputs(params_.data() + shape.weight_offset,
                                  delta, delta_next, shape.in, shape.out);
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
    : ReplicatedMlp(config, replicas, HostMlpKernels())
{
}

ReplicatedMlp::ReplicatedMlp(const MlpConfig &config,
                             std::uint32_t replicas,
                             const MlpKernels &kernels)
    : kernels_(&kernels)
{
    FRUGAL_CHECK(replicas > 0);
    for (std::uint32_t g = 0; g < replicas; ++g)
        replicas_.push_back(std::make_unique<Mlp>(config, kernels));
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
    const float step = lr * scale;
    const std::size_t n = replicas_[0]->parameter_count();
    constexpr std::size_t kChunk = 1024;  // sums stay in L1
    float sum[kChunk] = {};
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t len = std::min(kChunk, n - base);
        const float *g0 = replicas_[0]->gradients().data() + base;
        std::memcpy(sum, g0, len * sizeof(float));
        for (std::size_t r = 1; r < replicas_.size(); ++r)
            kernels_->add_into(sum, replicas_[r]->gradients().data() + base,
                               len);
        for (auto &replica : replicas_) {
            kernels_->descend(replica->parameters().data() + base, sum,
                              step, len);
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
