/**
 * @file
 * ChunkArena unit tests: address stability across chunk growth,
 * alignment of over-aligned types, creation-order iteration, and
 * destructor accounting.
 */
#include "common/arena.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace frugal {
namespace {

TEST(ChunkArenaTest, CreateReturnsConstructedObject)
{
    ChunkArena<std::uint64_t> arena(4);
    std::uint64_t *value = arena.Create(42u);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 42u);
    EXPECT_EQ(arena.size(), 1u);
    EXPECT_EQ(arena.chunks(), 1u);
}

TEST(ChunkArenaTest, AddressesStayStableAcrossChunkGrowth)
{
    // Tiny chunks force many seals; every earlier pointer must still
    // dereference to its original value afterwards (the FlushQueue holds
    // raw GEntry pointers for the whole run).
    ChunkArena<std::uint64_t> arena(8);
    std::vector<std::uint64_t *> pointers;
    for (std::uint64_t i = 0; i < 1000; ++i)
        pointers.push_back(arena.Create(i));
    EXPECT_EQ(arena.size(), 1000u);
    EXPECT_EQ(arena.chunks(), (1000 + 7) / 8);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(*pointers[i], i) << "object " << i << " moved";
}

TEST(ChunkArenaTest, ForEachVisitsInCreationOrder)
{
    ChunkArena<int> arena(3);
    for (int i = 0; i < 10; ++i)
        arena.Create(i);
    std::vector<int> seen;
    arena.ForEach([&](int &value) { seen.push_back(value); });
    ASSERT_EQ(seen.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(ChunkArenaTest, OverAlignedTypeIsAligned)
{
    struct alignas(64) Padded
    {
        std::uint64_t value;
    };
    ChunkArena<Padded> arena(5);
    for (std::uint64_t i = 0; i < 20; ++i) {
        Padded *object = arena.Create(Padded{i});
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(object) % 64, 0u);
        EXPECT_EQ(object->value, i);
    }
}

TEST(ChunkArenaTest, DestructorRunsForEveryObject)
{
    static int live = 0;
    struct Counted
    {
        Counted() { ++live; }
        Counted(const Counted &) { ++live; }
        ~Counted() { --live; }
    };
    live = 0;
    {
        ChunkArena<Counted> arena(4);
        for (int i = 0; i < 11; ++i)
            arena.Create();
        EXPECT_EQ(live, 11);
    }
    EXPECT_EQ(live, 0);
}

TEST(ChunkArenaTest, NonTrivialConstructorArguments)
{
    struct Pair
    {
        Pair(std::uint64_t a_in, std::uint64_t b_in) : a(a_in), b(b_in) {}
        std::uint64_t a;
        std::uint64_t b;
    };
    ChunkArena<Pair> arena(2);
    Pair *pair = arena.Create(3u, 4u);
    EXPECT_EQ(pair->a, 3u);
    EXPECT_EQ(pair->b, 4u);
}

}  // namespace
}  // namespace frugal
