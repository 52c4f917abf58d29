/**
 * @file
 * Owning registry of g-entries, indexed by key.
 *
 * The controller process keeps metadata "for two categories of parameters:
 * parameters soon to be accessed and parameters with pending updates"
 * (§3.3). Entries are created lazily on first touch and retained for the
 * life of the run — the FlushQueue holds raw pointers into this registry,
 * so stability of addresses is part of the contract.
 *
 * Every key is a dense row index below the table's key space (the host
 * table is a dense array and LoadTrace rejects larger keys), so the
 * index is one atomic slot per key: a hit is one acquire load. A miss
 * takes the creation lock, re-checks the slot, builds the entry in a
 * chunked arena (addresses never move) and publishes it with a release
 * store. Entries are cache-line aligned (see GEntry), so two flush
 * threads working on neighbouring entries never share a line.
 */
#ifndef FRUGAL_PQ_G_ENTRY_REGISTRY_H_
#define FRUGAL_PQ_G_ENTRY_REGISTRY_H_

#include <memory>
#include <span>

#include "check/model_sync.h"
#include "common/arena.h"
#include "common/logging.h"
#include "common/spinlock.h"
#include "pq/g_entry.h"

namespace frugal {

/** Owning map Key → GEntry over the dense key space [0, key_space). */
class GEntryRegistry
{
  public:
    /** @param key_space every key passed in must be below it. */
    explicit GEntryRegistry(std::size_t key_space)
        : key_space_(key_space),
          slots_(std::make_unique<model_atomic<GEntry *>[]>(key_space))
    {
    }

    /** The shard count of the old hash-sharded layout is ignored. */
    GEntryRegistry(std::size_t /*shards*/, std::size_t key_space)
        : GEntryRegistry(key_space)
    {
    }

    GEntryRegistry(const GEntryRegistry &) = delete;
    GEntryRegistry &operator=(const GEntryRegistry &) = delete;

    /** Returns the entry for `key`, creating it on first touch. */
    GEntry &
    GetOrCreate(Key key)
    {
        FRUGAL_CHECK_MSG(key < key_space_,
                         "key " << key << " outside the registry's key space "
                                << key_space_);
        model_atomic<GEntry *> &slot = slots_[key];
        // acquire: pairs with the release store below, so the entry's
        // construction is visible before it is used.
        GEntry *entry = slot.load(std::memory_order_acquire);
        if (entry != nullptr)
            return *entry;
        SpinGuard guard(create_lock_);
        // relaxed: every store to a slot happens under create_lock_.
        entry = slot.load(std::memory_order_relaxed);
        if (entry == nullptr) {
            // alloc-ok: one arena chunk per kChunkEntries creations, and
            // each key is created once per run.
            entry = arena_.Create(key);
            // release: publishes the constructed entry to the lock-free
            // load above.
            slot.store(entry, std::memory_order_release);
        }
        return *entry;
    }

    /** Resolves `keys[i]` into `out[i]` for i in [0, keys.size());
     *  duplicate keys resolve to the same entry. */
    void
    GetOrCreateBatch(std::span<const Key> keys, GEntry **out)
    {
        for (std::size_t i = 0; i < keys.size(); ++i)
            out[i] = &GetOrCreate(keys[i]);
    }

    /** Visits every entry in creation order; `fn` must not call back
     *  into the registry. Intended for quiescent phases (end-of-training
     *  audits). */
    template <typename Fn>
    void
    ForEach(Fn &&fn)
    {
        SpinGuard guard(create_lock_);
        arena_.ForEach([&fn](GEntry &entry) { fn(entry); });
    }

    std::size_t
    size() const
    {
        SpinGuard guard(create_lock_);
        return arena_.size();
    }

    /** Bytes held by the slot index and the entry arena. */
    std::size_t
    MemoryBytes() const
    {
        SpinGuard guard(create_lock_);
        return key_space_ * sizeof(model_atomic<GEntry *>) +
               arena_.MemoryBytes();
    }

  private:
    /** Entries per arena chunk (32 KiB of 128-byte entries). */
    static constexpr std::size_t kChunkEntries = 256;

    const std::size_t key_space_;
    /** slots_[key] is key's entry, or nullptr before its first touch. */
    const std::unique_ptr<model_atomic<GEntry *>[]> slots_;
    mutable Spinlock create_lock_{LockRank::kRegistry};
    ChunkArena<GEntry> arena_ FRUGAL_GUARDED_BY(create_lock_){kChunkEntries};
};

}  // namespace frugal

#endif  // FRUGAL_PQ_G_ENTRY_REGISTRY_H_
