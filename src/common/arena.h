/**
 * @file
 * A chunked bump arena for objects with stable addresses.
 *
 * The g-entry registry retains every entry for the life of the run and
 * hands out raw pointers that the FlushQueue stores (see
 * pq/g_entry_registry.h); the original `unique_ptr`-per-entry layout
 * satisfied that contract at the price of one heap node per entry and
 * no locality between entries created together. ChunkArena keeps the
 * contract — *a constructed object never moves* — while allocating in
 * large blocks:
 *
 *  - objects are placement-new'ed into fixed-capacity chunks;
 *  - a full chunk is sealed and a new one opened; sealed chunks are
 *    never reallocated, so addresses are stable forever;
 *  - there is no per-object free: the arena owns everything until it is
 *    destroyed (exactly the registry's retain-for-the-run lifetime);
 *  - `std::allocator<T>` provides storage, so an over-aligned T keeps
 *    its alignment (GEntry is cache-line aligned).
 *
 * Not thread-safe; callers serialise creation (the registry creates
 * entries under its creation lock).
 */
#ifndef FRUGAL_COMMON_ARENA_H_
#define FRUGAL_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace frugal {

/** Bump-allocating object arena; see the file comment. */
template <typename T>
class ChunkArena
{
  public:
    /** @param chunk_capacity objects per chunk (> 0). */
    explicit ChunkArena(std::size_t chunk_capacity = 256)
        : chunk_capacity_(chunk_capacity)
    {
        FRUGAL_CHECK_MSG(chunk_capacity > 0,
                         "arena chunk capacity must be positive");
    }

    ChunkArena(const ChunkArena &) = delete;
    ChunkArena &operator=(const ChunkArena &) = delete;

    ~ChunkArena()
    {
        std::allocator<T> alloc;
        for (Chunk &chunk : chunks_) {
            for (std::size_t i = 0; i < chunk.used; ++i)
                std::destroy_at(chunk.data + i);
            alloc.deallocate(chunk.data, chunk_capacity_);
        }
    }

    /** Constructs a T in place; the returned pointer is stable until the
     *  arena is destroyed. */
    template <typename... Args>
    T *
    Create(Args &&...args)
    {
        if (chunks_.empty() || chunks_.back().used == chunk_capacity_) {
            std::allocator<T> alloc;
            // alloc-ok: one chunk allocation per chunk_capacity_ Creates;
            // amortized to near-zero on the per-object path.
            chunks_.push_back(
                Chunk{alloc.allocate(chunk_capacity_), 0});
        }
        Chunk &chunk = chunks_.back();
        T *object = std::construct_at(chunk.data + chunk.used,
                                      std::forward<Args>(args)...);
        ++chunk.used;
        ++size_;
        return object;
    }

    /** Number of live objects. */
    std::size_t size() const { return size_; }

    std::size_t chunk_capacity() const { return chunk_capacity_; }
    std::size_t chunks() const { return chunks_.size(); }

    /** Bytes of chunk storage currently allocated. */
    std::size_t
    MemoryBytes() const
    {
        return chunks_.size() * chunk_capacity_ * sizeof(T);
    }

    /** Visits every object in creation order. */
    template <typename Fn>
    void
    ForEach(Fn &&fn)
    {
        for (Chunk &chunk : chunks_) {
            for (std::size_t i = 0; i < chunk.used; ++i)
                fn(chunk.data[i]);
        }
    }

  private:
    struct Chunk
    {
        T *data = nullptr;
        std::size_t used = 0;
    };

    const std::size_t chunk_capacity_;
    std::vector<Chunk> chunks_;
    std::size_t size_ = 0;
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_ARENA_H_
