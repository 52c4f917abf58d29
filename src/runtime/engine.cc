#include "runtime/engine.h"

#include "common/logging.h"
#include "runtime/baseline_engines.h"
#include "runtime/frugal_engine.h"
#include "table/checkpoint.h"

namespace frugal {

Engine::Engine(const EngineConfig &config)
    : config_(config), ownership_(config.n_gpus)
{
    FRUGAL_CHECK_MSG(config.n_gpus > 0, "need at least one GPU");
    FRUGAL_CHECK_MSG(config.key_space > 0, "empty key space");
    // Both comparisons are false for NaN.
    FRUGAL_CHECK_MSG(config.cache_ratio > 0.0 && config.cache_ratio <= 1.0,
                     "cache_ratio must lie in (0, 1], got "
                         << config.cache_ratio);
    FRUGAL_CHECK_MSG(config.checkpoint_every_steps == 0 ||
                         !config.checkpoint_path.empty(),
                     "checkpoint_every_steps is set but checkpoint_path is "
                     "empty");
    EmbeddingTableConfig table_config;
    table_config.key_space = config.key_space;
    table_config.dim = config.dim;
    table_config.init_seed = config.init_seed;
    table_config.init_scale = config.init_scale;
    table_ = std::make_unique<HostEmbeddingTable>(table_config);
    optimizer_ = MakeOptimizer(config.optimizer, config.learning_rate,
                               config.key_space, config.dim);
}

void
Engine::ResetParameters()
{
    table_->ResetParameters();
    // Stateful optimizers (Adagrad) restart from zero accumulators.
    optimizer_ = MakeOptimizer(config_.optimizer, config_.learning_rate,
                               config_.key_space, config_.dim);
    resume_cursor_ = 0;
}

std::optional<Step>
Engine::ResumeFrom(const std::string &path)
{
    CheckpointInfo info;
    if (!ProbeCheckpoint(path, &info)) {
        FRUGAL_WARN("cannot resume: no readable checkpoint at " << path);
        return std::nullopt;
    }
    if (info.optimizer_name != optimizer_->Name()) {
        FRUGAL_WARN("cannot resume: checkpoint optimizer '"
                    << info.optimizer_name << "' != engine optimizer '"
                    << optimizer_->Name() << "'");
        return std::nullopt;
    }
    CheckpointExtras extras;
    if (!LoadCheckpoint(*table_, path, &extras))
        return std::nullopt;
    if (!optimizer_->ImportState(extras.optimizer_state)) {
        // The table is already overwritten but the caller was warned —
        // a half-resume must not run, so reset to a known state.
        ResetParameters();
        FRUGAL_WARN("cannot resume: optimizer state rejected; engine "
                    "reset to initial parameters");
        return std::nullopt;
    }
    resume_cursor_ = extras.next_step;
    return extras.next_step;
}

std::unique_ptr<Engine>
MakeEngine(const std::string &name, const EngineConfig &config)
{
    if (name == "frugal")
        return std::make_unique<FrugalEngine>(config);
    if (name == "frugal-sync")
        return std::make_unique<FrugalSyncEngine>(config);
    if (name == "cached")
        return std::make_unique<CachedEngine>(config);
    if (name == "nocache")
        return std::make_unique<NoCacheEngine>(config);
    FRUGAL_FATAL("unknown engine: " << name);
}

}  // namespace frugal
