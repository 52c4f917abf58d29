#include "common/fault_injector.h"

#include "common/rng.h"

namespace frugal {

namespace {

/** Uniform [0,1) draw from a stateless hash of (seed, site, hit). */
double
BernoulliDraw(std::uint64_t seed, FaultSite site, std::uint64_t hit)
{
    std::uint64_t x = seed;
    x ^= (static_cast<std::uint64_t>(site) + 1) * 0x9e3779b97f4a7c15ULL;
    x ^= MixHash64(hit + 0x632be59bd9b4e019ULL);
    x = MixHash64(x);
    // 53 high bits → double in [0, 1).
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

const char *
FaultSiteName(FaultSite site)
{
    switch (site) {
    case FaultSite::kFlushThreadDeath:
        return "flush-thread-death";
    case FaultSite::kHostWriteTransient:
        return "host-write-transient";
    case FaultSite::kTrainerDeath:
        return "trainer-death";
    case FaultSite::kCheckpointTruncate:
        return "checkpoint-truncate";
    case FaultSite::kCheckpointCorrupt:
        return "checkpoint-corrupt";
    case FaultSite::kCheckpointTornWrite:
        return "checkpoint-torn-write";
    case FaultSite::kSiteCount:
        break;
    }
    return "unknown-site";
}

std::optional<std::uint32_t>
FaultInjector::Fire(FaultSite site, std::uint64_t context)
{
    // relaxed: the counter only dispenses unique hit indices; the draw
    // below is a pure function of the index, so no ordering is needed.
    const std::uint64_t hit =
        hits_[Index(site)].fetch_add(1, std::memory_order_relaxed);
    for (const FaultRule &rule : plan_.rules) {
        if (rule.site != site)
            continue;
        if (hit < rule.from_hit || hit >= rule.until_hit)
            continue;
        if (rule.context != kAnyContext && rule.context != context)
            continue;
        if (rule.probability < 1.0 &&
            BernoulliDraw(plan_.seed, site, hit) >= rule.probability) {
            continue;
        }
        // relaxed: monotonic stat counter, read for reporting only.
        fires_[Index(site)].fetch_add(1, std::memory_order_relaxed);
        return rule.payload;
    }
    return std::nullopt;
}

std::uint64_t
FaultInjector::total_fires() const
{
    std::uint64_t total = 0;
    for (const auto &f : fires_) {
        // relaxed: monotonic stat counter, read for reporting only.
        total += f.load(std::memory_order_relaxed);
    }
    return total;
}

}  // namespace frugal
