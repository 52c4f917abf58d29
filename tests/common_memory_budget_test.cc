/** Tests for the memory-pressure monitor (common/memory_budget.h). */
#include "common/memory_budget.h"

#include <gtest/gtest.h>

namespace frugal {
namespace {

TEST(MemoryBudgetTest, ZeroBudgetNeverClassifies)
{
    MemoryBudget budget(0);
    budget.Publish(MemoryComponent::kArena, 1u << 30);
    budget.Publish(MemoryComponent::kCache, 1u << 30);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kNormal);
    EXPECT_EQ(budget.stage(), PressureStage::kNormal);
    EXPECT_EQ(budget.transitions(), 0u);
}

TEST(MemoryBudgetTest, GaugesOverwriteAndSum)
{
    MemoryBudget budget(1000);
    budget.Publish(MemoryComponent::kArena, 100);
    budget.Publish(MemoryComponent::kArena, 40);  // gauge, not counter
    budget.Publish(MemoryComponent::kCache, 20);
    budget.Publish(MemoryComponent::kQueue, 30);
    EXPECT_EQ(budget.bytes(MemoryComponent::kArena), 40u);
    EXPECT_EQ(budget.TotalBytes(), 90u);
}

TEST(MemoryBudgetTest, StagesEngageAtThresholds)
{
    MemoryBudget budget(1000);
    budget.Publish(MemoryComponent::kArena, 699);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kNormal);
    budget.Publish(MemoryComponent::kArena, 700);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kElevated);
    budget.Publish(MemoryComponent::kArena, 899);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kElevated);
    budget.Publish(MemoryComponent::kArena, 900);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kCritical);
    EXPECT_EQ(budget.transitions(), 2u);
    EXPECT_EQ(budget.peak_stage(), 2u);
    EXPECT_EQ(budget.peak_total_bytes(), 900u);
}

TEST(MemoryBudgetTest, HysteresisPreventsFlapping)
{
    MemoryBudget budget(1000);
    budget.Publish(MemoryComponent::kArena, 950);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kCritical);
    // Just below the engage threshold: critical holds (clears at 80%).
    budget.Publish(MemoryComponent::kArena, 850);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kCritical);
    budget.Publish(MemoryComponent::kArena, 799);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kElevated);
    // Elevated likewise holds until below 60%.
    budget.Publish(MemoryComponent::kArena, 650);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kElevated);
    budget.Publish(MemoryComponent::kArena, 599);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kNormal);
    EXPECT_EQ(budget.transitions(), 3u);
}

TEST(MemoryBudgetTest, MidRunBudgetSqueezeReclassifies)
{
    MemoryBudget budget(10000);
    budget.Publish(MemoryComponent::kCache, 5000);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kNormal);
    // An operator (or co-tenant) halves the budget: same bytes, new
    // classification at the next Evaluate.
    budget.SetBudget(5000);
    EXPECT_EQ(budget.Evaluate(), PressureStage::kCritical);
    EXPECT_EQ(budget.budget_bytes(), 5000u);
}

TEST(MemoryBudgetTest, NamesAreStable)
{
    EXPECT_STREQ(PressureStageName(PressureStage::kNormal), "normal");
    EXPECT_STREQ(PressureStageName(PressureStage::kElevated), "elevated");
    EXPECT_STREQ(PressureStageName(PressureStage::kCritical), "critical");
    EXPECT_STREQ(MemoryComponentName(MemoryComponent::kArena), "arena");
    EXPECT_STREQ(MemoryComponentName(MemoryComponent::kQueue), "queue");
}

}  // namespace
}  // namespace frugal
