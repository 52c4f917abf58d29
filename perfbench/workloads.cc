#include "workloads.h"

#include <stdexcept>

#include "common/distribution.h"
#include "common/rng.h"
#include "data/dataset_spec.h"
#include "data/kg_dataset.h"
#include "data/rec_dataset.h"
#include "models/dlrm.h"
#include "models/kg_model.h"
#include "runtime/microtask.h"

namespace perfbench {
namespace {

using frugal::EngineConfig;

// Load shape shared by every workload: two trainers plus two flush
// threads fill a 4-core host. Every other EngineConfig field keeps its
// default (oracular prefetch and 5% cache included).
constexpr std::uint32_t kTrainers = 2;
constexpr std::size_t kFlushThreads = 2;

// Steps per engine run. Each is sized so that one run takes about 1-2 s
// on a 4-core host: long enough that start-up transients stay small,
// short enough that a measuring window holds several runs (whose
// medians are reported) and that the single-threaded oracle, computed
// once per invocation, stays affordable.
constexpr std::size_t kEmbSteps = 3000;
constexpr std::size_t kRecSteps = 160;
constexpr std::size_t kKgSteps = 400;

EngineConfig
BaseConfig(std::size_t dim, std::uint64_t key_space)
{
    EngineConfig config;
    config.n_gpus = kTrainers;
    config.flush_threads = kFlushThreads;
    config.dim = dim;
    config.key_space = key_space;
    return config;
}

/** Embedding-only microbenchmark (§4.1 synthetic): Zipf 0.99 keys,
 *  linear gradient task. */
Workload
MakeEmbZipf(std::uint64_t seed)
{
    constexpr std::uint64_t kKeys = 1 << 16;
    constexpr std::size_t kKeysPerGpu = 256;
    frugal::Rng rng(seed);
    auto dist = frugal::MakeDistribution(frugal::DistributionKind::kZipf,
                                         kKeys, 0.99);
    Workload w;
    w.name = "emb_zipf";
    w.config = BaseConfig(16, kKeys);
    // A sample is one drawn key (before per-GPU deduplication).
    w.samples_per_step = kKeysPerGpu * kTrainers;
    w.trace = std::make_shared<const frugal::Trace>(frugal::Trace::Synthetic(
        *dist, rng, kEmbSteps, kTrainers, kKeysPerGpu));
    w.make_model = [] {
        Model model;
        model.grad_fn = frugal::MakeLinearGradTask();
        return model;
    };
    return w;
}

/** DLRM on Criteo-shaped data (26 fields, 34k IDs, dim 32). */
Workload
MakeRecDlrm(std::uint64_t seed)
{
    constexpr std::size_t kSamplesPerGpu = 64;
    const frugal::DatasetSpec spec =
        frugal::DatasetByName("Criteo").Scaled(1000.0);
    frugal::RecDatasetGenerator gen(spec, seed);
    auto data = std::make_shared<const frugal::DlrmWorkload>(
        frugal::DlrmWorkload::Build(gen, kRecSteps, kTrainers,
                                    kSamplesPerGpu));

    frugal::DlrmConfig model_config;
    model_config.n_features = gen.n_features();
    model_config.dim = spec.embedding_dim;
    model_config.hidden = {128, 64};
    model_config.n_gpus = kTrainers;

    Workload w;
    w.name = "rec_dlrm";
    w.config = BaseConfig(spec.embedding_dim, gen.key_space());
    w.samples_per_step = kSamplesPerGpu * kTrainers;
    w.trace = std::shared_ptr<const frugal::Trace>(data, &data->trace);
    w.make_model = [data, model_config] {
        auto dlrm = std::make_shared<frugal::DlrmModel>(model_config);
        Model model;
        model.grad_fn = dlrm->BindGradFn(*data);
        model.step_hook = dlrm->BindStepHook();
        model.losses = &dlrm->loss_history();
        model.owner = dlrm;
        return model;
    };
    return w;
}

/** TransE on FB15k-shaped data, 32 uniform negatives per positive. */
Workload
MakeKgUniformNeg(std::uint64_t seed)
{
    constexpr std::size_t kPositivesPerGpu = 32;
    constexpr std::size_t kNegatives = 32;
    constexpr std::size_t kDim = 32;
    const frugal::DatasetSpec &spec = frugal::DatasetByName("FB15k");
    frugal::KgDatasetGenerator gen(spec, kNegatives, seed);
    auto data = std::make_shared<const frugal::KgWorkload>(
        frugal::KgWorkload::Build(gen, kKgSteps, kTrainers,
                                  kPositivesPerGpu));

    frugal::KgModelConfig model_config;
    model_config.kind = frugal::KgScorerKind::kTransE;
    model_config.dim = kDim;
    model_config.n_gpus = kTrainers;

    Workload w;
    w.name = "kg_uniform_neg";
    w.config = BaseConfig(kDim, gen.key_space());
    // A sample is one positive triple.
    w.samples_per_step = kPositivesPerGpu * kTrainers;
    w.trace = std::shared_ptr<const frugal::Trace>(data, &data->trace);
    w.make_model = [data, model_config] {
        auto kg = std::make_shared<frugal::KgModel>(model_config);
        Model model;
        model.grad_fn = kg->BindGradFn(*data);
        model.step_hook = kg->BindStepHook();
        model.losses = &kg->loss_history();
        model.owner = kg;
        return model;
    };
    return w;
}

}  // namespace

const std::vector<std::string> &
WorkloadNames()
{
    static const std::vector<std::string> names = {"emb_zipf", "rec_dlrm",
                                                   "kg_uniform_neg"};
    return names;
}

Workload
MakeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "emb_zipf")
        return MakeEmbZipf(seed);
    if (name == "rec_dlrm")
        return MakeRecDlrm(seed);
    if (name == "kg_uniform_neg")
        return MakeKgUniformNeg(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
