/**
 * @file
 * Owning registry of g-entries, sharded by key hash.
 *
 * The controller process keeps metadata "for two categories of parameters:
 * parameters soon to be accessed and parameters with pending updates"
 * (§3.3). Entries are created lazily on first touch and retained for the
 * life of the run — the FlushQueue holds raw pointers into this registry,
 * so stability of addresses is part of the contract.
 *
 * Data-plane layout: each shard is a FlatMap Key → GEntry* over a
 * chunked arena that owns the entries. The arena bump-allocates entries
 * into sealed blocks whose addresses never move (preserving the
 * raw-pointer contract above) and gives entries created together cache
 * locality; the flat map resolves get-or-create in one probe walk with
 * no per-entry heap node. The old layout paid two unordered_map lookups
 * (find, then emplace) plus a unique_ptr node allocation per entry.
 */
#ifndef FRUGAL_PQ_G_ENTRY_REGISTRY_H_
#define FRUGAL_PQ_G_ENTRY_REGISTRY_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "pq/g_entry.h"

namespace frugal {

/** Sharded owning map Key → GEntry. */
class GEntryRegistry
{
  public:
    /**
     * @param shards        lock shards (> 0)
     * @param expected_keys optional capacity hint: pre-sizes each
     *        shard's index so the steady-state run never rehashes.
     *        Capped per shard, so a huge sparse key space does not
     *        translate into a huge up-front allocation.
     */
    explicit GEntryRegistry(std::size_t shards = 64,
                            std::size_t expected_keys = 0)
        : shards_(shards)
    {
        FRUGAL_CHECK(shards > 0);
        if (expected_keys > 0) {
            const std::size_t per_shard = std::min<std::size_t>(
                expected_keys / shards + 1, kMaxShardHint);
            for (Shard &shard : shards_)
                shard.entries.Reserve(per_shard);
        }
    }

    GEntryRegistry(const GEntryRegistry &) = delete;
    GEntryRegistry &operator=(const GEntryRegistry &) = delete;

    /** Returns the entry for `key`, creating it if absent — one probe
     *  walk either way. */
    GEntry &
    GetOrCreate(Key key)
    {
        Shard &shard = ShardFor(key);
        SpinGuard guard(shard.lock);
        return *GetOrCreateLocked(shard, key);
    }

    /**
     * Batched get-or-create: resolves `keys[i]` into `out[i]` for i in
     * [0, keys.size()). Keys are grouped by shard first, so each shard
     * lock is taken once per contiguous run of same-shard keys instead
     * of once per key — the single-call path above pays a lock
     * round-trip per key even when consecutive keys land in the same
     * shard. Duplicate keys in the batch are fine (they resolve to the
     * same entry). Equivalent to calling GetOrCreate per key.
     */
    void
    GetOrCreateBatch(std::span<const Key> keys, GEntry **out)
    {
        const std::size_t n = keys.size();
        if (n == 0)
            return;
        // Scratch kept across calls (this runs once per drained step on
        // the hot path); (shard, index) packed into one word so the
        // group-by is a single integer sort.
        thread_local std::vector<std::uint64_t> grouped;
        grouped.clear();
        grouped.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t shard = MixHash64(keys[i]) % shards_.size();
            grouped.push_back(shard << 32 | i);
        }
        std::sort(grouped.begin(), grouped.end());
        std::size_t i = 0;
        while (i < n) {
            const std::uint64_t shard_id = grouped[i] >> 32;
            Shard &shard = shards_[shard_id];
            SpinGuard guard(shard.lock);
            for (; i < n && grouped[i] >> 32 == shard_id; ++i) {
                const auto idx =
                    static_cast<std::size_t>(grouped[i] & 0xffffffffu);
                // On a throw, the keys resolved so far stay resolved
                // (per-key atomicity); rerunning the batch converges.
                out[idx] = GetOrCreateLocked(shard, keys[idx]);
            }
        }
    }

    /** Returns the entry for `key` or nullptr. */
    GEntry *
    Find(Key key)
    {
        Shard &shard = ShardFor(key);
        SpinGuard guard(shard.lock);
        GEntry *const *entry = shard.entries.Find(key);
        return entry == nullptr ? nullptr : *entry;
    }

    /** Visits every entry; `fn` must not call back into the registry.
     *  Intended for quiescent phases (end-of-training audits). */
    template <typename Fn>
    void
    ForEach(Fn &&fn)
    {
        for (Shard &shard : shards_) {
            SpinGuard guard(shard.lock);
            // The arena iterates entries in creation order with block
            // locality (cheaper than walking the hash index).
            shard.arena.ForEach([&fn](GEntry &entry) { fn(entry); });
        }
    }

    std::size_t
    size() const
    {
        std::size_t total = 0;
        for (const Shard &shard : shards_) {
            SpinGuard guard(shard.lock);
            total += shard.arena.size();
        }
        return total;
    }

    /** Arms the kAllocFailure growth fault point on every shard's arena
     *  and index (nullptr disarms). A firing growth throws
     *  std::bad_alloc out of GetOrCreate/GetOrCreateBatch with the
     *  shard untouched, so the call is retryable. */
    void
    ArmFaultInjector(FaultInjector *injector)
    {
        for (Shard &shard : shards_) {
            SpinGuard guard(shard.lock);
            shard.entries.ArmFaultInjector(injector);
            shard.arena.ArmFaultInjector(injector);
        }
    }

    /** Bytes held by the entry arenas across shards. */
    std::size_t
    ArenaBytes() const
    {
        std::size_t total = 0;
        for (const Shard &shard : shards_) {
            SpinGuard guard(shard.lock);
            total += shard.arena.MemoryBytes();
        }
        return total;
    }

    /** Bytes held by the key → entry indexes across shards. */
    std::size_t
    IndexBytes() const
    {
        std::size_t total = 0;
        for (const Shard &shard : shards_) {
            SpinGuard guard(shard.lock);
            total += shard.entries.MemoryBytes();
        }
        return total;
    }

  private:
    /** Per-shard Reserve cap: 8k entries ≈ 128 KiB of index per shard
     *  worst case; beyond that, growth amortises fine. */
    static constexpr std::size_t kMaxShardHint = 8192;

    struct Shard
    {
        mutable Spinlock lock{LockRank::kRegistryShard};
        FlatMap<Key, GEntry *> entries FRUGAL_GUARDED_BY(lock);
        ChunkArena<GEntry> arena FRUGAL_GUARDED_BY(lock);

        Shard() : arena(256) {}
    };

    /** Returns `key`'s entry in `shard`, creating it if absent — one
     *  probe walk either way. A throwing arena growth (injected
     *  kAllocFailure) must not leave the placeholder behind: it is
     *  erased, so the shard keeps the strong guarantee and the caller
     *  can simply retry. */
    static GEntry *
    GetOrCreateLocked(Shard &shard, Key key) FRUGAL_REQUIRES(shard.lock)
    {
        auto [entry, inserted] = shard.entries.TryEmplace(key, nullptr);
        if (inserted) {
            try {
                *entry = shard.arena.Create(key);
            } catch (...) {
                shard.entries.Erase(key);
                throw;
            }
        }
        return *entry;
    }

    Shard &
    ShardFor(Key key)
    {
        // Low bits pick the shard; the shard's FlatMap homes slots with
        // the TOP bits of the same hash (see FlatMap::HomeOf), so the
        // identical low-bit pattern every key in a shard shares cannot
        // cluster its home slots.
        return shards_[MixHash64(key) % shards_.size()];
    }

    std::vector<Shard> shards_;
};

}  // namespace frugal

#endif  // FRUGAL_PQ_G_ENTRY_REGISTRY_H_
