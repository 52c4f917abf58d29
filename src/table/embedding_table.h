/**
 * @file
 * The host-memory embedding table — the authoritative, complete parameter
 * set that the controller process manages and exposes to every trainer
 * (Fig. 5). In the real system this lives in (huge) host DRAM behind a
 * shared-memory interface; here it is a dense float matrix with per-row
 * version counters that the consistency auditor uses to detect stale
 * reads.
 *
 * Thread-safety: rows are independent; each row is guarded by a striped
 * lock so concurrent flush threads (disjoint keys by construction, but
 * the lock makes the guarantee local) and baseline engines can commit
 * updates safely. Reads during training are race-free by the P²F gate —
 * the auditor checks that, rather than assuming it.
 */
#ifndef FRUGAL_TABLE_EMBEDDING_TABLE_H_
#define FRUGAL_TABLE_EMBEDDING_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "table/optimizer.h"

namespace frugal {

/** Configuration of a host embedding table. */
struct EmbeddingTableConfig
{
    std::uint64_t key_space = 0;   ///< number of rows (c in the paper)
    std::size_t dim = 32;          ///< embedding dimension (d)
    std::uint64_t init_seed = 42;  ///< deterministic init seed
    float init_scale = 0.01f;      ///< uniform init range [-scale, scale)
    std::size_t lock_stripes = 1024;
};

/** Dense host-resident embedding table with versioned rows. */
class HostEmbeddingTable
{
  public:
    explicit HostEmbeddingTable(const EmbeddingTableConfig &config);

    HostEmbeddingTable(const HostEmbeddingTable &) = delete;
    HostEmbeddingTable &operator=(const HostEmbeddingTable &) = delete;

    std::uint64_t key_space() const { return config_.key_space; }
    std::size_t dim() const { return config_.dim; }

    /** Copies the row for `key` into `out` (size dim()). Returns the row
     *  version observed, for consistency auditing. */
    std::uint64_t ReadRow(Key key, float *out) const;

    /**
     * Batch gather: copies the row for `keys[i]` into `outs[i]` (each
     * `dim()` floats) for i in [0, n). One call amortises the per-row
     * call and version-read overhead of the trainer gather loop; rows
     * are still copied under their stripe locks, so the per-row
     * consistency guarantee is unchanged (versions are not reported —
     * gather callers do their auditing through the g-entry path).
     */
    void ReadRows(const Key *keys, std::size_t n, float *const *outs) const;

    /** As above into one contiguous buffer: row i at out + i*dim(). */
    void ReadRows(const Key *keys, std::size_t n, float *out) const;

    /** Direct pointer to a row; caller must ensure exclusion: tests,
     *  single-threaded oracles, the sync engine's commit (every trainer
     *  parked) and the flush path's cache refresh (under the key's
     *  g-entry lock, which every concurrent write of the row holds). */
    float *MutableRow(Key key);
    const float *Row(Key key) const;

    /**
     * Applies one gradient through `optimizer` under the row lock and
     * bumps the row version. Returns the new version.
     */
    std::uint64_t ApplyGradient(Key key, const float *grad,
                                Optimizer &optimizer);

    /**
     * Applies `n` gradients to one row under a single row-lock
     * acquisition, in the order given — bit-identical to `n` successive
     * ApplyGradient calls (the per-record optimizer application is
     * unchanged; only the lock/version traffic is batched). The flush
     * path uses this to commit a claimed g-entry's whole W set, already
     * in canonical (step, src) order, with one lock round-trip.
     * Returns the new version (bumped by `n`).
     */
    std::uint64_t ApplyGradients(Key key, const float *const *grads,
                                 std::size_t n, Optimizer &optimizer);

    /** Row version (number of updates committed so far). */
    std::uint64_t RowVersion(Key key) const;

    /** Re-initialises every row deterministically from the seed. */
    void ResetParameters();

    /** Model size in bytes (values only), as Table 2 reports. */
    std::uint64_t SizeBytes() const
    {
        return config_.key_space * config_.dim * sizeof(float);
    }

    /** The deterministic initial value of row `key`, element `j`; shared
     *  with oracles so they can reproduce init without a table copy. */
    static float InitialValue(std::uint64_t seed, float scale, Key key,
                              std::size_t j);

  private:
    std::size_t
    RowOffset(Key key) const
    {
        FRUGAL_CHECK_MSG(key < config_.key_space,
                         "key " << key << " out of range");
        return static_cast<std::size_t>(key) * config_.dim;
    }

    const EmbeddingTableConfig config_;
    // values_ and versions_ are guarded by *dynamically chosen* stripes
    // (row i under row_locks_.For(key)), which static thread-safety
    // analysis cannot express — the stripe discipline is enforced by
    // review plus the interleaving explorer, not by GUARDED_BY.
    // tsa-exempt: striped row locks; see the paragraph above.
    std::vector<float> values_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> versions_;
    mutable StripedLocks row_locks_;
};

}  // namespace frugal

#endif  // FRUGAL_TABLE_EMBEDDING_TABLE_H_
