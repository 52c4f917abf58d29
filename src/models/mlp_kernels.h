/**
 * @file
 * The batched MLP's lane kernels as sets of entry points (DESIGN.md §8,
 * "Batched MLP kernels"). Both sets compile from one templated source in
 * mlp.cc and compute bit-identical results; they differ only in the lane
 * vector. Mlp picks the host's set once per process; tests name each set
 * to run both. Internal to models/ and its tests.
 */
#ifndef FRUGAL_MODELS_MLP_KERNELS_H_
#define FRUGAL_MODELS_MLP_KERNELS_H_

#include <cstddef>

namespace frugal {

/** One instruction set's kernels. Activations and deltas are
 *  [feature][lane] blocks of Mlp::kLanes lanes. */
struct MlpKernels
{
    /** out[o][lane] = b[o] + Σ_i w[o][i]·in[i][lane], i ascending. */
    void (*forward_layer)(const float *w, const float *b, const float *in,
                          float *out, std::size_t n_in, std::size_t n_out);
    /** delta_in[i][lane] = Σ_o delta[o][lane]·w[o][i], o ascending from
     *  +0. */
    void (*backward_inputs)(const float *w, const float *delta,
                            float *delta_in, std::size_t n_in,
                            std::size_t n_out);
    /** gw[o][i] += delta[o][e]·rows[e][i] and gb[o] += delta[o][e] for
     *  the lanes e < `lanes`, in lane order. */
    void (*accumulate_gradients)(float *gw, float *gb, const float *delta,
                                 const float *rows, std::size_t n_in,
                                 std::size_t n_out, std::size_t lanes);
    /** sum[j] += g[j] for j < n. */
    void (*add_into)(float *sum, const float *g, std::size_t n);
    /** p[j] -= step * sum[j] for j < n. */
    void (*descend)(float *p, const float *sum, float step, std::size_t n);
};

/** Two 4-float SSE vectors per block: every build target. */
const MlpKernels &PortableMlpKernels();

/** One 8-float AVX2 vector per block; nullptr unless the host runs
 *  AVX2. */
const MlpKernels *Avx2MlpKernels();

/** The set every Mlp uses unless given one: AVX2 where the host has it,
 *  else the portable set. Chosen on first use. */
const MlpKernels &HostMlpKernels();

}  // namespace frugal

#endif  // FRUGAL_MODELS_MLP_KERNELS_H_
