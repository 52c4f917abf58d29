/**
 * @file
 * FlatMap unit tests: probe-chain behaviour under forced collisions,
 * growth/rehash, backward-shift deletion, iteration, and a randomized
 * model-equivalence check against std::unordered_map.
 */
#include "common/flat_map.h"

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace frugal {
namespace {

TEST(FlatMapTest, EmptyMapFindsNothing)
{
    FlatMap<std::uint64_t, std::uint32_t> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.Find(7), nullptr);
    EXPECT_FALSE(map.Contains(7));
    EXPECT_FALSE(map.Erase(7));
}

TEST(FlatMapTest, TryEmplaceInsertsOnceAndFindsAgain)
{
    FlatMap<std::uint64_t, std::uint32_t> map;
    auto [value, inserted] = map.TryEmplace(42, 7u);
    ASSERT_NE(value, nullptr);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 7u);

    auto [again, second] = map.TryEmplace(42, 99u);
    EXPECT_FALSE(second);
    EXPECT_EQ(*again, 7u);  // existing value untouched
    EXPECT_EQ(map.size(), 1u);

    const std::uint32_t *found = map.Find(42);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, 7u);
}

TEST(FlatMapTest, PutOverwrites)
{
    FlatMap<std::uint64_t, std::uint32_t> map;
    EXPECT_TRUE(map.Put(1, 10));
    EXPECT_FALSE(map.Put(1, 20));
    EXPECT_EQ(*map.Find(1), 20u);
    EXPECT_EQ(map.size(), 1u);
}

/** Finds `n` distinct keys whose home slot equals `home` for a table of
 *  `capacity` slots (capacity must match the map's internal growth
 *  schedule for the collision to be real — asserted loosely below by
 *  checking the probe chain actually formed). */
std::vector<std::uint64_t>
CollidingKeys(std::size_t capacity, std::size_t home, std::size_t n)
{
    // The map homes slots on the TOP log2(capacity) hash bits.
    unsigned shift = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1)
        --shift;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t candidate = 0; keys.size() < n; ++candidate) {
        if ((MixHash64(candidate) >> shift) == home)
            keys.push_back(candidate);
    }
    return keys;
}

TEST(FlatMapTest, CollisionChainResolvesAllKeys)
{
    // Force an 8-deep chain on one home slot of the minimum table (16
    // slots, grows at 14 = 16*7/8): insert 8 colliders plus nothing
    // else, so every probe walk crosses the run.
    const auto keys = CollidingKeys(16, 3, 8);
    FlatMap<std::uint64_t, std::uint32_t> map;
    for (std::uint32_t i = 0; i < keys.size(); ++i)
        EXPECT_TRUE(map.TryEmplace(keys[i], i).second);
    EXPECT_EQ(map.size(), keys.size());
    EXPECT_GE(map.MaxProbeLength(), keys.size());
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
        const std::uint32_t *value = map.Find(keys[i]);
        ASSERT_NE(value, nullptr) << "collider " << i;
        EXPECT_EQ(*value, i);
    }
    // Erasing from the middle backward-shifts the rest of the run.
    EXPECT_TRUE(map.Erase(keys[3]));
    EXPECT_EQ(map.Find(keys[3]), nullptr);
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
        if (i == 3)
            continue;
        ASSERT_NE(map.Find(keys[i]), nullptr) << "collider " << i;
        EXPECT_EQ(*map.Find(keys[i]), i);
    }
}

TEST(FlatMapTest, GrowthRehashKeepsEveryElement)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    const std::uint64_t n = 10'000;  // many doublings past kMinCapacity
    for (std::uint64_t k = 0; k < n; ++k)
        ASSERT_TRUE(map.TryEmplace(k * 2654435761ULL, k).second);
    EXPECT_EQ(map.size(), n);
    // Load factor stays ≤ 7/8 across growth.
    EXPECT_LE(map.size() * 8, map.capacity() * 7);
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t *value = map.Find(k * 2654435761ULL);
        ASSERT_NE(value, nullptr) << "key " << k;
        EXPECT_EQ(*value, k);
    }
}

TEST(FlatMapTest, ReserveAvoidsRehash)
{
    FlatMap<std::uint64_t, std::uint32_t> map;
    map.Reserve(1000);
    const std::size_t capacity = map.capacity();
    EXPECT_GE(capacity * 7, 1000u * 8);  // fits without growth
    for (std::uint64_t k = 0; k < 1000; ++k)
        map.TryEmplace(k, 0u);
    EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatMapTest, EraseBackwardShiftLeavesNoGhosts)
{
    // Insert, erase everything, re-insert: a tombstone scheme would
    // degrade or misreport; backward shift must leave a clean table.
    FlatMap<std::uint64_t, std::uint32_t> map;
    for (std::uint64_t k = 0; k < 500; ++k)
        map.TryEmplace(k, static_cast<std::uint32_t>(k));
    for (std::uint64_t k = 0; k < 500; ++k)
        EXPECT_TRUE(map.Erase(k));
    EXPECT_EQ(map.size(), 0u);
    for (std::uint64_t k = 0; k < 500; ++k)
        EXPECT_EQ(map.Find(k), nullptr);
    for (std::uint64_t k = 0; k < 500; ++k)
        EXPECT_TRUE(map.TryEmplace(k, 1u).second);
    EXPECT_EQ(map.size(), 500u);
}

TEST(FlatMapTest, ForEachVisitsEveryLiveElementOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    for (std::uint64_t k = 0; k < 300; ++k) {
        map.TryEmplace(k * 13, k);
        model.emplace(k * 13, k);
    }
    for (std::uint64_t k = 0; k < 300; k += 3) {
        map.Erase(k * 13);
        model.erase(k * 13);
    }
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    map.ForEach([&](std::uint64_t key, std::uint64_t value) {
        EXPECT_TRUE(seen.emplace(key, value).second)
            << "key " << key << " visited twice";
    });
    EXPECT_EQ(seen, model);
}

TEST(FlatMapTest, ClearKeepsCapacity)
{
    FlatMap<std::uint64_t, std::uint32_t> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map.TryEmplace(k, 0u);
    const std::size_t capacity = map.capacity();
    map.Clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), capacity);
    EXPECT_EQ(map.Find(5), nullptr);
}

TEST(FlatMapTest, RandomizedModelEquivalence)
{
    std::mt19937_64 rng(20260806);
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    // Small key universe so insert/erase/find constantly collide on the
    // same keys and deletion chains get exercised.
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 512);
    for (int op = 0; op < 200'000; ++op) {
        const std::uint64_t key = key_dist(rng);
        switch (op % 4) {
        case 0: {
            const std::uint64_t value = rng();
            EXPECT_EQ(map.TryEmplace(key, value).second,
                      model.emplace(key, value).second);
            break;
        }
        case 1: {
            const std::uint64_t value = rng();
            map.Put(key, value);
            model[key] = value;
            break;
        }
        case 2:
            EXPECT_EQ(map.Erase(key), model.erase(key) > 0);
            break;
        default: {
            const std::uint64_t *value = map.Find(key);
            auto it = model.find(key);
            if (it == model.end()) {
                EXPECT_EQ(value, nullptr);
            } else {
                ASSERT_NE(value, nullptr);
                EXPECT_EQ(*value, it->second);
            }
        }
        }
        ASSERT_EQ(map.size(), model.size());
    }
}

TEST(FlatMapTest, PointerValues)
{
    int a = 1, b = 2;
    FlatMap<std::uint64_t, int *> map;
    map.TryEmplace(1, &a);
    map.TryEmplace(2, &b);
    EXPECT_EQ(**map.Find(1), 1);
    EXPECT_EQ(**map.Find(2), 2);
}

}  // namespace
}  // namespace frugal
