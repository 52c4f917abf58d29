#include "common/memory_budget.h"

namespace frugal {

const char *
MemoryComponentName(MemoryComponent component)
{
    switch (component) {
    case MemoryComponent::kArena:
        return "arena";
    case MemoryComponent::kCache:
        return "cache";
    case MemoryComponent::kQueue:
        return "queue";
    case MemoryComponent::kComponentCount:
        break;
    }
    return "unknown";
}

const char *
PressureStageName(PressureStage stage)
{
    switch (stage) {
    case PressureStage::kNormal:
        return "normal";
    case PressureStage::kElevated:
        return "elevated";
    case PressureStage::kCritical:
        return "critical";
    }
    return "unknown";
}

MemoryBudget::MemoryBudget(std::size_t budget_bytes) : budget_(budget_bytes) {}

void
MemoryBudget::SetBudget(std::size_t bytes)
{
    // relaxed: the budget is a standalone tunable read by the next
    // Evaluate(); no other data is published under it.
    budget_.store(bytes, std::memory_order_relaxed);
}

std::size_t
MemoryBudget::budget_bytes() const
{
    // relaxed: standalone tunable, see SetBudget.
    return budget_.load(std::memory_order_relaxed);
}

void
MemoryBudget::Publish(MemoryComponent component, std::size_t bytes)
{
    // relaxed: independent gauge; staleness only delays a stage change
    // by one Evaluate() period.
    bytes_[static_cast<std::size_t>(component)].store(
        bytes, std::memory_order_relaxed);
}

std::size_t
MemoryBudget::bytes(MemoryComponent component) const
{
    // relaxed: independent gauge, read for reporting/evaluation only.
    return bytes_[static_cast<std::size_t>(component)].load(
        std::memory_order_relaxed);
}

std::size_t
MemoryBudget::TotalBytes() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < kComponents; ++i) {
        // relaxed: gauges are sampled independently; the sum is a
        // monitoring estimate, not a synchronization point.
        total += bytes_[i].load(std::memory_order_relaxed);
    }
    return total;
}

PressureStage
MemoryBudget::Evaluate()
{
    const std::size_t budget = budget_bytes();
    const std::size_t total = TotalBytes();

    // relaxed: peak tracking races only against itself (single
    // evaluator); reporting-only.
    if (total > peak_total_.load(std::memory_order_relaxed))
        peak_total_.store(total, std::memory_order_relaxed);

    // relaxed: stage_ is only written here (single evaluator) and read
    // elsewhere as an advisory mode flag; reactions tolerate lag.
    const auto previous = static_cast<PressureStage>(
        stage_.load(std::memory_order_relaxed));
    PressureStage next = PressureStage::kNormal;
    if (budget > 0) {
        const double usage =
            static_cast<double>(total) / static_cast<double>(budget);
        const bool was_critical = previous == PressureStage::kCritical;
        const bool was_elevated = previous >= PressureStage::kElevated;
        // Engage at the threshold; clear only `kHysteresisFraction`
        // below it, so usage hovering at a boundary cannot flap.
        if (usage >= kCriticalFraction ||
            (was_critical && usage >= kCriticalFraction - kHysteresisFraction))
            next = PressureStage::kCritical;
        else if (usage >= kElevatedFraction ||
                 (was_elevated &&
                  usage >= kElevatedFraction - kHysteresisFraction))
            next = PressureStage::kElevated;
    }

    if (next != previous) {
        // relaxed: monotonic stat counter, read for reporting only.
        transitions_.fetch_add(1, std::memory_order_relaxed);
        // relaxed: advisory mode flag, see above.
        stage_.store(static_cast<std::uint8_t>(next),
                     std::memory_order_relaxed);
        // relaxed: peak tracking, single evaluator, reporting-only.
        if (static_cast<std::uint8_t>(next) >
            peak_stage_.load(std::memory_order_relaxed))
            peak_stage_.store(static_cast<std::uint8_t>(next),
                              std::memory_order_relaxed);
    }
    return next;
}

PressureStage
MemoryBudget::stage() const
{
    // relaxed: advisory mode flag; readers tolerate one-period lag.
    return static_cast<PressureStage>(stage_.load(std::memory_order_relaxed));
}

std::uint64_t
MemoryBudget::transitions() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return transitions_.load(std::memory_order_relaxed);
}

std::uint8_t
MemoryBudget::peak_stage() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return peak_stage_.load(std::memory_order_relaxed);
}

std::size_t
MemoryBudget::peak_total_bytes() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return peak_total_.load(std::memory_order_relaxed);
}

}  // namespace frugal
