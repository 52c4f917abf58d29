/**
 * Model tests: analytic gradients of the MLP and the four KG scorers are
 * checked against central finite differences, the batched MLP paths are
 * checked byte for byte against the per-example reference on every
 * kernel set the host runs, and the replicated-dense machinery is
 * verified to keep replicas bit-identical.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/kg_scorers.h"
#include "models/mlp.h"
#include "models/mlp_kernels.h"

namespace frugal {
namespace {

// ---------------------------------------------------------------------
// KG scorer gradient checks (parameterised over the scorer kind).
// ---------------------------------------------------------------------

class KgScorerGradTest : public ::testing::TestWithParam<KgScorerKind>
{
};

TEST_P(KgScorerGradTest, MatchesFiniteDifferences)
{
    const KgScorerKind kind = GetParam();
    constexpr std::size_t kDim = 8;
    constexpr double kEps = 1e-3;
    Rng rng(123);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> h(kDim), r(kDim), t(kDim);
        for (std::size_t j = 0; j < kDim; ++j) {
            h[j] = static_cast<float>(rng.NextGaussian(0, 0.5));
            r[j] = static_cast<float>(rng.NextGaussian(0, 0.5));
            t[j] = static_cast<float>(rng.NextGaussian(0, 0.5));
        }
        std::vector<float> gh(kDim, 0), gr(kDim, 0), gt(kDim, 0);
        AccumulateTripleGrad(kind, h.data(), r.data(), t.data(), kDim,
                             1.0f, gh.data(), gr.data(), gt.data());

        auto check = [&](std::vector<float> &vec,
                         const std::vector<float> &grad,
                         const char *name) {
            for (std::size_t j = 0; j < kDim; ++j) {
                const float saved = vec[j];
                vec[j] = saved + static_cast<float>(kEps);
                const double up = ScoreTriple(kind, h.data(), r.data(),
                                              t.data(), kDim);
                vec[j] = saved - static_cast<float>(kEps);
                const double dn = ScoreTriple(kind, h.data(), r.data(),
                                              t.data(), kDim);
                vec[j] = saved;
                const double fd = (up - dn) / (2 * kEps);
                EXPECT_NEAR(grad[j], fd, 5e-3)
                    << name << "[" << j << "] trial " << trial;
            }
        };
        check(h, gh, "h");
        check(r, gr, "r");
        check(t, gt, "t");
    }
}

TEST_P(KgScorerGradTest, DscaleScalesLinearly)
{
    const KgScorerKind kind = GetParam();
    constexpr std::size_t kDim = 4;
    std::vector<float> h = {0.1f, -0.2f, 0.3f, 0.4f};
    std::vector<float> r = {0.2f, 0.1f, -0.3f, 0.2f};
    std::vector<float> t = {-0.1f, 0.2f, 0.1f, -0.4f};
    std::vector<float> g1(kDim * 3, 0), g2(kDim * 3, 0);
    AccumulateTripleGrad(kind, h.data(), r.data(), t.data(), kDim, 1.0f,
                         g1.data(), g1.data() + kDim,
                         g1.data() + 2 * kDim);
    AccumulateTripleGrad(kind, h.data(), r.data(), t.data(), kDim, -2.5f,
                         g2.data(), g2.data() + kDim,
                         g2.data() + 2 * kDim);
    for (std::size_t i = 0; i < g1.size(); ++i)
        EXPECT_NEAR(g2[i], -2.5f * g1[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllScorers, KgScorerGradTest,
                         ::testing::Values(KgScorerKind::kTransE,
                                           KgScorerKind::kDistMult,
                                           KgScorerKind::kComplEx,
                                           KgScorerKind::kSimplE),
                         [](const auto &info) {
                             return KgScorerName(info.param);
                         });

TEST(KgScorerTest, NamesRoundTrip)
{
    for (KgScorerKind kind :
         {KgScorerKind::kTransE, KgScorerKind::kDistMult,
          KgScorerKind::kComplEx, KgScorerKind::kSimplE}) {
        EXPECT_EQ(KgScorerByName(KgScorerName(kind)), kind);
    }
}

TEST(KgScorerTest, TransEPerfectTripleScoresGamma)
{
    // h + r == t ⇒ distance 0 ⇒ score = γ.
    std::vector<float> h = {0.1f, 0.2f}, r = {0.3f, -0.1f};
    std::vector<float> t = {0.4f, 0.1f};
    EXPECT_NEAR(ScoreTriple(KgScorerKind::kTransE, h.data(), r.data(),
                            t.data(), 2, 12.0),
                12.0, 1e-6);
}

// ---------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------

MlpConfig
SmallMlp()
{
    MlpConfig config;
    config.layers = {6, 8, 4};
    config.learning_rate = 0.1f;
    config.seed = 5;
    return config;
}

TEST(MlpTest, PredictInUnitInterval)
{
    Mlp mlp(SmallMlp());
    Rng rng(1);
    std::vector<float> x(6);
    for (int i = 0; i < 100; ++i) {
        for (float &v : x)
            v = static_cast<float>(rng.NextGaussian());
        const float p = mlp.Predict(x.data());
        ASSERT_GT(p, 0.0f);
        ASSERT_LT(p, 1.0f);
    }
}

TEST(MlpTest, InputGradientMatchesFiniteDifferences)
{
    Mlp mlp(SmallMlp());
    Rng rng(2);
    std::vector<float> x(6);
    for (float &v : x)
        v = static_cast<float>(rng.NextGaussian(0, 0.5));
    std::vector<float> gx(6, 0.0f);
    const float label = 1.0f;
    // Copy so parameter-gradient accumulation does not disturb checks.
    Mlp probe(SmallMlp());
    probe.TrainExample(x.data(), label, gx.data());

    constexpr double kEps = 1e-3;
    for (std::size_t j = 0; j < 6; ++j) {
        auto loss_at = [&](float xj) {
            std::vector<float> xx = x;
            xx[j] = xj;
            const float p = mlp.Predict(xx.data());
            return -std::log(static_cast<double>(p) + 1e-7);
        };
        const double fd =
            (loss_at(x[j] + static_cast<float>(kEps)) -
             loss_at(x[j] - static_cast<float>(kEps))) /
            (2 * kEps);
        EXPECT_NEAR(gx[j], fd, 2e-3) << "input " << j;
    }
}

TEST(MlpTest, ParameterGradientMatchesFiniteDifferences)
{
    MlpConfig config = SmallMlp();
    Mlp mlp(config);
    Rng rng(3);
    std::vector<float> x(6);
    for (float &v : x)
        v = static_cast<float>(rng.NextGaussian(0, 0.5));
    std::vector<float> gx(6, 0.0f);
    const float label = 0.0f;
    mlp.TrainExample(x.data(), label, gx.data());
    const std::vector<float> grads = mlp.gradients();

    constexpr double kEps = 1e-3;
    // Spot-check a spread of parameters (checking all ~100 is fine too
    // but adds nothing).
    for (std::size_t p = 0; p < mlp.parameter_count();
         p += mlp.parameter_count() / 17 + 1) {
        const float saved = mlp.parameters()[p];
        auto loss_at = [&](float v) {
            mlp.parameters()[p] = v;
            const float prob = mlp.Predict(x.data());
            mlp.parameters()[p] = saved;
            return -std::log(1.0 - static_cast<double>(prob) + 1e-7);
        };
        const double fd =
            (loss_at(saved + static_cast<float>(kEps)) -
             loss_at(saved - static_cast<float>(kEps))) /
            (2 * kEps);
        EXPECT_NEAR(grads[p], fd, 2e-3) << "param " << p;
    }
}

TEST(MlpTest, LearnsLinearlySeparableData)
{
    MlpConfig config;
    config.layers = {4, 16};
    config.learning_rate = 0.5f;
    config.seed = 7;
    Mlp mlp(config);
    Rng rng(11);
    std::vector<float> x(4), gx(4);
    double early = 0.0, late = 0.0;
    constexpr int kSteps = 2000;
    for (int i = 0; i < kSteps; ++i) {
        float sum = 0.0f;
        for (float &v : x) {
            v = static_cast<float>(rng.NextGaussian());
            sum += v;
        }
        const float label = sum > 0 ? 1.0f : 0.0f;
        gx.assign(4, 0.0f);
        const float loss = mlp.TrainExample(x.data(), label, gx.data());
        mlp.ApplyAccumulatedGradients(1.0f);
        if (i < 200)
            early += loss;
        if (i >= kSteps - 200)
            late += loss;
    }
    EXPECT_LT(late, 0.6 * early);  // clear learning signal
}

TEST(MlpTest, ResetRestoresInitialParameters)
{
    Mlp a(SmallMlp());
    const std::vector<float> init = a.parameters();
    std::vector<float> x(6, 0.5f), gx(6, 0.0f);
    a.TrainExample(x.data(), 1.0f, gx.data());
    a.ApplyAccumulatedGradients(1.0f);
    EXPECT_NE(a.parameters(), init);
    a.Reset();
    EXPECT_EQ(a.parameters(), init);
}

// ---------------------------------------------------------------------
// Batched MLP paths against the per-example reference, byte for byte.
// ---------------------------------------------------------------------

bool
SameBytes(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

MlpConfig
BatchConfig(const std::vector<std::size_t> &layers)
{
    MlpConfig config;
    config.layers = layers;
    config.learning_rate = 0.1f;
    config.seed = 21;
    return config;
}

/** Kills every third unit of the first hidden layer (a bias no input
 *  overcomes), so whole rows of deltas are exactly zero: the rows the
 *  reference skips and the batched lanes add as ±0. */
void
KillHiddenUnits(Mlp &mlp, const std::vector<std::size_t> &layers)
{
    if (layers.size() < 2)
        return;
    const std::size_t bias = layers[0] * layers[1];
    for (std::size_t o = 0; o < layers[1]; o += 3)
        mlp.parameters()[bias + o] = -1e3f;
}

/** `n` rows of inputs with exact zeros (both signs) among the draws. */
std::vector<float>
BatchInputs(Rng &rng, std::size_t n, std::size_t in)
{
    std::vector<float> x(n * in);
    for (std::size_t j = 0; j < x.size(); ++j) {
        x[j] = j % 7 == 3    ? 0.0f
               : j % 11 == 5 ? -0.0f
                             : static_cast<float>(rng.NextGaussian());
    }
    return x;
}

/** Every kernel set this host runs: the portable set, and the AVX2 set
 *  where the host has AVX2. */
std::vector<const MlpKernels *>
KernelSets()
{
    std::vector<const MlpKernels *> sets = {&PortableMlpKernels()};
    if (const MlpKernels *avx2 = Avx2MlpKernels())
        sets.push_back(avx2);
    return sets;
}

/** The set's name, for failure traces. */
const char *
SetName(const MlpKernels *kernels)
{
    return kernels == &PortableMlpKernels() ? "portable" : "avx2";
}

TEST(MlpKernelsTest, HostSetIsAvx2WhereTheHostHasIt)
{
    const MlpKernels *avx2 = Avx2MlpKernels();
    EXPECT_EQ(&HostMlpKernels(),
              avx2 != nullptr ? avx2 : &PortableMlpKernels());
}

struct BatchShape
{
    std::vector<std::size_t> layers;
    std::size_t n;
};

void
PrintTo(const BatchShape &shape, std::ostream *os)
{
    *os << "layers {";
    for (std::size_t width : shape.layers)
        *os << " " << width;
    *os << " }, n " << shape.n;
}

/** TrainBatch on `kernels` against in-order TrainExample calls, over four
 *  rounds of gradients and steps. */
void
ExpectTrainBatchMatches(const BatchShape &shape, const MlpKernels &kernels)
{
    const std::size_t in = shape.layers.front();
    const std::size_t n = shape.n;
    Mlp reference(BatchConfig(shape.layers));
    Mlp batched(BatchConfig(shape.layers), kernels);
    KillHiddenUnits(reference, shape.layers);
    KillHiddenUnits(batched, shape.layers);
    Rng rng(31 + n);
    for (int round = 0; round < 4; ++round) {
        const std::vector<float> x = BatchInputs(rng, n, in);
        std::vector<float> labels(n);
        for (std::size_t e = 0; e < n; ++e)
            labels[e] = (e + static_cast<std::size_t>(round)) % 3 == 0
                            ? 1.0f
                            : 0.0f;
        // grad_x accumulates: start both from the same non-zero rows.
        std::vector<float> gx_ref(n * in), loss_ref(n);
        for (std::size_t j = 0; j < gx_ref.size(); ++j)
            gx_ref[j] = j % 5 == 0 ? 0.0f : static_cast<float>(j) * 1e-3f;
        std::vector<float> gx = gx_ref, loss(n);
        for (std::size_t e = 0; e < n; ++e) {
            loss_ref[e] = reference.TrainExample(
                x.data() + e * in, labels[e], gx_ref.data() + e * in);
        }
        batched.TrainBatch(x.data(), labels.data(), n, gx.data(),
                           loss.data());
        for (std::size_t e = 0; e < n; ++e)
            ASSERT_EQ(loss_ref[e], loss[e]) << "round " << round << " e " << e;
        ASSERT_TRUE(SameBytes(reference.gradients(), batched.gradients()))
            << "round " << round;
        ASSERT_TRUE(SameBytes(gx_ref, gx)) << "round " << round;
        reference.ApplyAccumulatedGradients(1.0f / static_cast<float>(n));
        batched.ApplyAccumulatedGradients(1.0f / static_cast<float>(n));
        ASSERT_TRUE(SameBytes(reference.parameters(), batched.parameters()))
            << "round " << round;
    }
}

class MlpBatchTest : public ::testing::TestWithParam<BatchShape>
{
};

TEST_P(MlpBatchTest, TrainBatchMatchesInOrderTrainExample)
{
    for (const MlpKernels *kernels : KernelSets()) {
        SCOPED_TRACE(SetName(kernels));
        ExpectTrainBatchMatches(GetParam(), *kernels);
    }
}

TEST_P(MlpBatchTest, PredictBatchMatchesPredict)
{
    const BatchShape &shape = GetParam();
    const std::size_t in = shape.layers.front();
    for (const MlpKernels *kernels : KernelSets()) {
        SCOPED_TRACE(SetName(kernels));
        Mlp mlp(BatchConfig(shape.layers), *kernels);
        KillHiddenUnits(mlp, shape.layers);
        Rng rng(41 + shape.n);
        const std::vector<float> x = BatchInputs(rng, shape.n, in);
        std::vector<float> expected(shape.n), probs(shape.n);
        for (std::size_t e = 0; e < shape.n; ++e)
            expected[e] = mlp.Predict(x.data() + e * in);
        mlp.PredictBatch(x.data(), shape.n, probs.data());
        EXPECT_TRUE(SameBytes(expected, probs));
    }
}

std::vector<BatchShape>
BatchShapes()
{
    // The rec_dlrm top MLP, widths that leave tails in every blocked
    // loop of both kernel sets (rows of 4 or 8, gradient runs of 16 or
    // 32, then single vectors, then scalars), and a head-only network;
    // each with a full block, one example, and partial last blocks.
    const std::vector<std::vector<std::size_t>> layers = {
        {832, 128, 64}, {6, 8, 4},   {5, 3}, {13, 9, 7},
        {37, 21, 6},    {45, 21, 6}, {7}};
    std::vector<BatchShape> shapes;
    for (const auto &l : layers) {
        for (std::size_t n : {1, 7, 13, 64})
            shapes.push_back({l, n});
    }
    return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpBatchTest, ::testing::ValuesIn(BatchShapes()),
    [](const ::testing::TestParamInfo<BatchShape> &info) {
        std::string name;
        for (std::size_t width : info.param.layers)
            name += std::to_string(width) + "_";
        return name + "n" + std::to_string(info.param.n);
    });

/** One ReplicatedMlp on `kernels` through three fused all-reduce steps,
 *  each against the plain per-parameter loop. */
void
ExpectFusedAllReduceMatches(const MlpKernels &kernels)
{
    // 1,487 parameters: more than one chunk of the fused pass, and a
    // tail that is not a multiple of the vector width.
    const MlpConfig config = BatchConfig({40, 30, 8});
    constexpr std::uint32_t kReplicas = 3;
    ReplicatedMlp replicas(config, kReplicas, kernels);
    Rng rng(51);
    for (int step = 0; step < 3; ++step) {
        std::size_t examples = 0;
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
            const std::size_t n = 2 + r;
            const std::vector<float> x = BatchInputs(rng, n, 40);
            std::vector<float> gx(n * 40, 0.0f);
            for (std::size_t e = 0; e < n; ++e) {
                replicas.replica(r).TrainExample(
                    x.data() + e * 40, e % 2 ? 1.0f : 0.0f,
                    gx.data() + e * 40);
            }
            examples += n;
        }
        // Plain reference: sum in replica order, the same step on every
        // replica.
        std::vector<std::vector<float>> expected(kReplicas);
        for (std::uint32_t r = 0; r < kReplicas; ++r)
            expected[r] = replicas.replica(r).parameters();
        const float scale = 1.0f / static_cast<float>(examples);
        for (std::size_t i = 0; i < expected[0].size(); ++i) {
            float sum = replicas.replica(0).gradients()[i];
            for (std::uint32_t r = 1; r < kReplicas; ++r)
                sum += replicas.replica(r).gradients()[i];
            for (std::uint32_t r = 0; r < kReplicas; ++r)
                expected[r][i] -= config.learning_rate * scale * sum;
        }
        replicas.AllReduceAndStep(examples);
        const std::vector<float> zeros(expected[0].size(), 0.0f);
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
            ASSERT_TRUE(SameBytes(expected[r],
                                  replicas.replica(r).parameters()))
                << "step " << step << " replica " << r;
            ASSERT_TRUE(SameBytes(zeros, replicas.replica(r).gradients()))
                << "step " << step << " replica " << r;
        }
    }
}

TEST(ReplicatedMlpTest, FusedAllReduceMatchesReferenceLoop)
{
    for (const MlpKernels *kernels : KernelSets()) {
        SCOPED_TRACE(SetName(kernels));
        ExpectFusedAllReduceMatches(*kernels);
    }
}

TEST(ReplicatedMlpTest, ReplicasStayBitIdentical)
{
    ReplicatedMlp replicas(SmallMlp(), 3);
    Rng rng(13);
    std::vector<float> x(6), gx(6);
    for (int step = 0; step < 20; ++step) {
        std::size_t examples = 0;
        for (std::uint32_t g = 0; g < 3; ++g) {
            for (int i = 0; i < 4; ++i) {
                for (float &v : x)
                    v = static_cast<float>(rng.NextGaussian());
                gx.assign(6, 0.0f);
                replicas.replica(g).TrainExample(
                    x.data(), i % 2 ? 1.0f : 0.0f, gx.data());
                ++examples;
            }
        }
        replicas.AllReduceAndStep(examples);
        EXPECT_EQ(replicas.replica(0).parameters(),
                  replicas.replica(1).parameters());
        EXPECT_EQ(replicas.replica(0).parameters(),
                  replicas.replica(2).parameters());
    }
}

TEST(ReplicatedMlpTest, MatchesSingleReplicaOnSameExamples)
{
    // 2 replicas splitting a batch must equal 1 replica seeing the whole
    // batch (the all-reduce is a mean over all examples).
    ReplicatedMlp two(SmallMlp(), 2);
    ReplicatedMlp one(SmallMlp(), 1);
    Rng rng(17);
    std::vector<float> x(6), gx(6);
    std::vector<std::vector<float>> batch;
    std::vector<float> labels;
    for (int i = 0; i < 8; ++i) {
        for (float &v : x)
            v = static_cast<float>(rng.NextGaussian());
        batch.push_back(x);
        labels.push_back(i % 2 ? 1.0f : 0.0f);
    }
    for (int i = 0; i < 8; ++i) {
        gx.assign(6, 0.0f);
        two.replica(i < 4 ? 0 : 1).TrainExample(batch[i].data(),
                                                labels[i], gx.data());
        gx.assign(6, 0.0f);
        one.replica(0).TrainExample(batch[i].data(), labels[i],
                                    gx.data());
    }
    two.AllReduceAndStep(8);
    one.AllReduceAndStep(8);
    const auto &p2 = two.replica(0).parameters();
    const auto &p1 = one.replica(0).parameters();
    for (std::size_t i = 0; i < p1.size(); ++i)
        ASSERT_NEAR(p1[i], p2[i], 1e-6);
}

}  // namespace
}  // namespace frugal
