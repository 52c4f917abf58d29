/**
 * @file
 * A flat open-addressing hash table (robin-hood probing, backward-shift
 * deletion) for the data-plane hot paths.
 *
 * `std::unordered_map` pays one heap node per element and a pointer
 * chase per probe; on the per-key paths (cache lookup, g-entry
 * get-or-create) that allocation and cache-miss cost dominates. FlatMap
 * keeps every slot in one contiguous array:
 *
 *  - power-of-two capacity, index = mix(key) & mask;
 *  - robin-hood displacement bounds probe-sequence variance, so lookups
 *    touch a handful of *adjacent* slots (usually one cache line);
 *  - deletion backward-shifts the displaced run — no tombstones, so
 *    performance never degrades with churn (the LRU cache erases on
 *    every eviction);
 *  - `TryEmplace` resolves present-or-insert in a single probe walk,
 *    replacing the find-then-emplace double lookup;
 *  - no per-element allocation, ever; growth is the only allocation.
 *
 * Restricted by design to trivially copyable/destructible keys and
 * values (the hot paths store integers, slot indices, and raw
 * pointers); a static_assert enforces it. Not thread-safe — callers
 * shard and lock exactly as they did around unordered_map.
 */
#ifndef FRUGAL_COMMON_FLAT_MAP_H_
#define FRUGAL_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace frugal {

/** Default FlatMap hash: SplitMix64 finalizer over the integral value.
 *  Identity-like hashes (std::hash on integers) cluster sequential keys
 *  into one probe run; a full-avalanche mix keeps runs short. The mix
 *  is a bijection on 64 bits, so distinct keys never share a full hash
 *  — capacity doubling always eventually separates any cluster. */
template <typename K>
struct FlatHash
{
    static_assert(std::is_integral_v<K> || std::is_pointer_v<K>,
                  "FlatHash supports integral and pointer keys");

    std::uint64_t
    operator()(const K &key) const
    {
        if constexpr (std::is_pointer_v<K>) {
            return MixHash64(reinterpret_cast<std::uintptr_t>(key));
        } else {
            return MixHash64(static_cast<std::uint64_t>(key));
        }
    }
};

/** Open-addressing robin-hood hash map; see the file comment. */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
    static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_destructible_v<K>,
                  "FlatMap keys must be trivial (hot-path contract)");
    static_assert(std::is_trivially_copyable_v<V> &&
                      std::is_trivially_destructible_v<V>,
                  "FlatMap values must be trivial (hot-path contract)");

  public:
    FlatMap() = default;

    /** Pre-sizes for `expected` elements (no rehash before that). */
    explicit FlatMap(std::size_t expected) { Reserve(expected); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots allocated (0 until the first insert/Reserve). */
    std::size_t capacity() const { return slots_.size(); }

    /** Grows so `expected` elements fit without rehashing. */
    void
    Reserve(std::size_t expected)
    {
        // Max load factor 7/8: grow when size * 8 > capacity * 7.
        std::size_t target = kMinCapacity;
        while (target * 7 < expected * 8)
            target <<= 1;
        if (target > slots_.size())
            Rehash(target);
    }

    /** Pointer to the value for `key`, or nullptr. */
    V *
    Find(const K &key)
    {
        return const_cast<V *>(
            static_cast<const FlatMap *>(this)->Find(key));
    }

    const V *
    Find(const K &key) const
    {
        if (slots_.empty())
            return nullptr;
        std::size_t idx = HomeOf(key);
        std::uint8_t probe = 1;
        for (;;) {
            const Slot &slot = slots_[idx];
            if (slot.probe < probe)
                return nullptr;  // robin-hood order: key would sit here
            if (slot.probe == probe && slot.key == key)
                return &slot.value;
            idx = (idx + 1) & mask_;
            ++probe;
        }
    }

    bool Contains(const K &key) const { return Find(key) != nullptr; }

    /**
     * Single-probe present-or-insert: returns {value pointer, inserted}.
     * On insert the value is constructed from `args` (or
     * value-initialised when none are given). The pointer is valid until
     * the next insert or erase.
     */
    template <typename... Args>
    std::pair<V *, bool>
    TryEmplace(const K &key, Args &&...args)
    {
        GrowIfNeeded();
        for (;;) {
            std::size_t idx = HomeOf(key);
            std::uint8_t probe = 1;
            for (;;) {
                Slot &slot = slots_[idx];
                if (slot.probe == 0) {
                    slot.key = key;
                    slot.value = V(std::forward<Args>(args)...);
                    slot.probe = probe;
                    ++size_;
                    return {&slot.value, true};
                }
                if (slot.probe == probe && slot.key == key)
                    return {&slot.value, false};
                if (slot.probe < probe) {
                    // `key` is the richer claimant of this slot: insert
                    // by displacing the resident run, then re-locate the
                    // new element (a displacement may itself trigger a
                    // growth that moves it).
                    InsertUncounted(key, V(std::forward<Args>(args)...));
                    ++size_;
                    return {Find(key), true};
                }
                idx = (idx + 1) & mask_;
                ++probe;
                if (probe >= kMaxProbe)
                    break;  // pathological run: grow and retry
            }
            Rehash(slots_.size() * 2);
        }
    }

    /** Inserts or overwrites; returns true when the key was new. */
    bool
    Put(const K &key, const V &value)
    {
        auto [slot_value, inserted] = TryEmplace(key, value);
        if (!inserted)
            *slot_value = value;
        return inserted;
    }

    /** Removes `key`; returns true when it was present. Backward-shift:
     *  the displaced run after the hole moves one slot up, so no
     *  tombstone is left behind. */
    bool
    Erase(const K &key)
    {
        if (slots_.empty())
            return false;
        std::size_t idx = HomeOf(key);
        std::uint8_t probe = 1;
        for (;;) {
            Slot &slot = slots_[idx];
            if (slot.probe < probe)
                return false;
            if (slot.probe == probe && slot.key == key)
                break;
            idx = (idx + 1) & mask_;
            ++probe;
        }
        // Shift successors whose probe distance is > 1 back into the
        // hole; stop at an empty slot or a run that starts at home.
        std::size_t hole = idx;
        for (;;) {
            const std::size_t next = (hole + 1) & mask_;
            Slot &successor = slots_[next];
            if (successor.probe <= 1)
                break;
            slots_[hole].key = successor.key;
            slots_[hole].value = successor.value;
            slots_[hole].probe =
                static_cast<std::uint8_t>(successor.probe - 1);
            hole = next;
        }
        slots_[hole].probe = 0;
        --size_;
        return true;
    }

    /** Drops every element; keeps the allocation. */
    void
    Clear()
    {
        for (Slot &slot : slots_)
            slot.probe = 0;
        size_ = 0;
    }

    /** Visits every (key, value) in unspecified order; `fn` must not
     *  mutate the map. */
    template <typename Fn>
    void
    ForEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_) {
            if (slot.probe != 0)
                fn(slot.key, slot.value);
        }
    }

    /** Longest probe sequence currently in the table (diagnostics). */
    std::size_t
    MaxProbeLength() const
    {
        std::size_t longest = 0;
        for (const Slot &slot : slots_) {
            if (slot.probe > longest)
                longest = slot.probe;
        }
        return longest;
    }

    /** Bytes of slot storage currently allocated. */
    std::size_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  private:
    struct Slot
    {
        K key{};
        V value{};
        std::uint8_t probe = 0;  ///< distance from home + 1; 0 = empty
    };

    static constexpr std::size_t kMinCapacity = 16;
    /** Probe distances live in a byte; a displacement chain this long
     *  means the table is pathologically clustered — grow instead. */
    static constexpr std::uint8_t kMaxProbe = 200;

    std::size_t
    HomeOf(const K &key) const
    {
        // Home on the TOP log2(capacity) bits. The data plane partitions
        // keys externally with `MixHash64(key) % n` (cache ownership);
        // with n a power of two that fixes the LOW bits of every key
        // reaching one map, and low-bit homing would cluster them on
        // every n-th slot. The top bits stay independent of any such
        // modulus.
        return static_cast<std::size_t>(Hash{}(key) >> shift_);
    }

    void
    GrowIfNeeded()
    {
        if (slots_.empty())
            Rehash(kMinCapacity);
        else if ((size_ + 1) * 8 > slots_.size() * 7)
            Rehash(slots_.size() * 2);
    }

    /**
     * Inserts a key known to be absent, displacing richer residents
     * (robin hood). Does not touch size_ — used by Rehash (which keeps
     * the count) and by TryEmplace (which counts at the call site). On
     * probe overflow it grows the table and restarts the carried
     * element from its new home; termination is guaranteed because the
     * hash is a 64-bit bijection (footnote at FlatHash).
     */
    void
    InsertUncounted(K key, V value)
    {
        for (;;) {
            std::size_t idx = HomeOf(key);
            std::uint8_t probe = 1;
            bool overflow = false;
            while (!overflow) {
                Slot &slot = slots_[idx];
                if (slot.probe == 0) {
                    slot.key = key;
                    slot.value = value;
                    slot.probe = probe;
                    return;
                }
                if (slot.probe < probe) {
                    std::swap(slot.key, key);
                    std::swap(slot.value, value);
                    std::swap(slot.probe, probe);
                }
                idx = (idx + 1) & mask_;
                ++probe;
                overflow = probe >= kMaxProbe;
            }
            // The carried element (original or displaced resident) still
            // needs a home: grow — Rehash re-places the table contents —
            // then restart with the carried element.
            Rehash(slots_.size() * 2);
        }
    }

    void
    Rehash(std::size_t new_capacity)
    {
        FRUGAL_CHECK_MSG(new_capacity > 0 &&
                             (new_capacity & (new_capacity - 1)) == 0,
                         "FlatMap capacity must be a power of two");
        std::vector<Slot> old = std::move(slots_);
        // alloc-ok: doubling growth; amortized O(1) per insert and the
        // table stops growing once a shard reaches its working-set size.
        slots_.assign(new_capacity, Slot{});
        mask_ = new_capacity - 1;
        shift_ = 64;
        for (std::size_t c = new_capacity; c > 1; c >>= 1)
            --shift_;
        for (const Slot &slot : old) {
            if (slot.probe != 0)
                InsertUncounted(slot.key, slot.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    /** 64 - log2(capacity); HomeOf shifts the hash down by this. Only
     *  meaningful once slots_ is non-empty (Rehash maintains it). */
    unsigned shift_ = 63;
    std::size_t size_ = 0;
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_FLAT_MAP_H_
