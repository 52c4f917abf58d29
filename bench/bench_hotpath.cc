/**
 * Data-plane hot-path microbenchmark (DESIGN.md §8).
 *
 * Measures the paths the flat-layout overhaul rewrote, each against an
 * inline *legacy* reference that reproduces the pre-rewrite
 * implementation shape:
 *
 *  - cache get / put: FlatMap + intrusive-array LRU GpuCache vs an
 *    unordered_map + std::list node-based LRU;
 *  - registry get-or-create: single-probe TryEmplace + arena GEntries vs
 *    find-then-emplace over unordered_map<Key, unique_ptr<GEntry>>;
 *  - row kernels: vectorised copy / SGD / Adagrad bandwidth.
 *
 * Emits BENCH_hotpath.json (one {"metric", "value", "unit"} record per
 * measurement) for the check.sh baseline diff. `--smoke` shrinks every
 * size for CI; `--out PATH` moves the JSON.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "cache/gpu_cache.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "metrics/reporter.h"
#include "pq/g_entry.h"
#include "pq/g_entry_registry.h"
#include "table/row_kernels.h"

namespace frugal {
namespace {

using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- legacy reference implementations (pre-rewrite shape) --------------

/** The old GpuCache layout: std::list LRU of heap rows, indexed by an
 *  unordered_map of list iterators. */
class LegacyLruCache
{
  public:
    LegacyLruCache(std::size_t capacity_rows, std::size_t dim)
        : capacity_(capacity_rows), dim_(dim)
    {
    }

    bool
    TryGet(Key key, float *out)
    {
        SpinGuard guard(lock_);
        auto it = map_.find(key);
        if (it == map_.end())
            return false;
        std::memcpy(out, it->second->row.data(), dim_ * sizeof(float));
        lru_.splice(lru_.begin(), lru_, it->second);
        return true;
    }

    Key
    Put(Key key, const float *row)
    {
        SpinGuard guard(lock_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            std::memcpy(it->second->row.data(), row,
                        dim_ * sizeof(float));
            lru_.splice(lru_.begin(), lru_, it->second);
            return kInvalidKey;
        }
        Key evicted = kInvalidKey;
        if (map_.size() >= capacity_) {
            evicted = lru_.back().key;
            map_.erase(evicted);
            lru_.pop_back();
        }
        lru_.push_front(Node{key, std::vector<float>(row, row + dim_)});
        map_.emplace(key, lru_.begin());
        return evicted;
    }

  private:
    struct Node
    {
        Key key;
        std::vector<float> row;
    };

    const std::size_t capacity_;
    const std::size_t dim_;
    Spinlock lock_{LockRank::kGpuCache};
    std::list<Node> lru_;
    std::unordered_map<Key, std::list<Node>::iterator> map_;
};

/** The old registry layout: sharded unordered_map of unique_ptr entries
 *  with the find-then-emplace double lookup. */
class LegacyRegistry
{
  public:
    explicit LegacyRegistry(std::size_t shards = 64) : shards_(shards) {}

    GEntry &
    GetOrCreate(Key key)
    {
        Shard &shard = shards_[static_cast<std::size_t>(key) %
                               shards_.size()];
        SpinGuard guard(shard.lock);
        auto it = shard.entries.find(key);
        if (it == shard.entries.end()) {
            it = shard.entries
                     .emplace(key, std::make_unique<GEntry>(key))
                     .first;
        }
        return *it->second;
    }

  private:
    struct Shard
    {
        Spinlock lock{LockRank::kRegistryShard};
        std::unordered_map<Key, std::unique_ptr<GEntry>> entries;
    };

    std::vector<Shard> shards_;
};


// --- benchmarks --------------------------------------------------------

struct Sizes
{
    std::size_t dim = 32;
    std::size_t cache_rows = 1 << 16;
    std::size_t cache_ops = 2'000'000;
    std::size_t registry_keys = 200'000;
    std::size_t registry_passes = 8;
    std::size_t kernel_rows = 1 << 15;
    std::size_t kernel_passes = 64;
};

/** A key stream with cache-friendly skew: 90 % of accesses hit the first
 *  `hot` keys, so get benchmarks measure the hit path. */
std::vector<Key>
SkewedKeys(std::size_t n, std::size_t universe, std::size_t hot,
           std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> coin(0, 9);
    std::uniform_int_distribution<std::size_t> hot_dist(0, hot - 1);
    std::uniform_int_distribution<std::size_t> cold_dist(0, universe - 1);
    std::vector<Key> keys(n);
    for (Key &key : keys)
        key = static_cast<Key>(coin(rng) == 0 ? cold_dist(rng)
                                              : hot_dist(rng));
    return keys;
}

template <typename Cache>
std::pair<double, double>
RunCacheBench(Cache &cache, const Sizes &sizes)
{
    const std::vector<Key> keys = SkewedKeys(
        sizes.cache_ops, sizes.cache_rows * 2, sizes.cache_rows / 2, 7);
    std::vector<float> row(sizes.dim, 1.0f);
    // Warm: put the hot set so gets measure the hit path.
    for (std::size_t k = 0; k < sizes.cache_rows / 2; ++k)
        cache.Put(static_cast<Key>(k), row.data());

    const auto put_start = Clock::now();
    for (Key key : keys)
        cache.Put(key, row.data());
    const double put_rate =
        static_cast<double>(keys.size()) / SecondsSince(put_start);

    float sink = 0.0f;
    const auto get_start = Clock::now();
    for (Key key : keys) {
        if (cache.TryGet(key, row.data()))
            sink += row[0];
    }
    const double get_rate =
        static_cast<double>(keys.size()) / SecondsSince(get_start);
    if (sink == 12345.678f)  // defeat dead-code elimination
        std::printf("%f\n", sink);
    return {get_rate, put_rate};
}

template <typename Registry>
double
RunRegistryBench(Registry &registry, const Sizes &sizes)
{
    std::vector<Key> keys(sizes.registry_keys);
    for (std::size_t k = 0; k < keys.size(); ++k)
        keys[k] = static_cast<Key>(k);
    std::mt19937_64 rng(11);
    std::shuffle(keys.begin(), keys.end(), rng);

    std::uintptr_t sink = 0;
    const auto start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.registry_passes; ++pass) {
        for (Key key : keys)
            sink ^= reinterpret_cast<std::uintptr_t>(
                &registry.GetOrCreate(key));
    }
    const double rate = static_cast<double>(sizes.registry_keys *
                                            sizes.registry_passes) /
                        SecondsSince(start);
    if (sink == 1)
        std::printf("impossible\n");
    return rate;
}

double
GigabytesPerSecond(std::size_t bytes_touched, double seconds)
{
    return static_cast<double>(bytes_touched) / seconds / 1e9;
}

void
RunKernelBench(const Sizes &sizes, std::vector<Metric> &metrics)
{
    const std::size_t n = sizes.kernel_rows * sizes.dim;
    std::vector<float> src(n, 0.25f), dst(n, 0.0f), acc(n, 1.0f);

    const auto copy_start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.kernel_passes; ++pass) {
        for (std::size_t r = 0; r < sizes.kernel_rows; ++r) {
            RowCopy(dst.data() + r * sizes.dim,
                    src.data() + r * sizes.dim, sizes.dim);
        }
    }
    // read + write per element
    metrics.push_back(Metric{
        "kernel_copy_bandwidth",
        GigabytesPerSecond(2 * n * sizes.kernel_passes * sizeof(float),
                           SecondsSince(copy_start)),
        "GB/s"});

    const auto sgd_start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.kernel_passes; ++pass) {
        for (std::size_t r = 0; r < sizes.kernel_rows; ++r) {
            RowSgdApply(dst.data() + r * sizes.dim,
                        src.data() + r * sizes.dim, 0.05f, sizes.dim);
        }
    }
    // row read+write, grad read
    metrics.push_back(Metric{
        "kernel_sgd_bandwidth",
        GigabytesPerSecond(3 * n * sizes.kernel_passes * sizeof(float),
                           SecondsSince(sgd_start)),
        "GB/s"});

    const auto ada_start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.kernel_passes; ++pass) {
        for (std::size_t r = 0; r < sizes.kernel_rows; ++r) {
            RowAdagradApply(dst.data() + r * sizes.dim,
                            acc.data() + r * sizes.dim,
                            src.data() + r * sizes.dim, 0.05f, 1e-10f,
                            sizes.dim);
        }
    }
    // row read+write, acc read+write, grad read
    metrics.push_back(Metric{
        "kernel_adagrad_bandwidth",
        GigabytesPerSecond(5 * n * sizes.kernel_passes * sizeof(float),
                           SecondsSince(ada_start)),
        "GB/s"});
}

}  // namespace
}  // namespace frugal

int
main(int argc, char **argv)
{
    using namespace frugal;

    const std::optional<BenchArgs> args =
        ParseBenchArgs(argc, argv, "BENCH_hotpath.json");
    if (!args)
        return 2;

    PrintBanner("Hot path (DESIGN.md §8)",
                "flat cache / registry / row kernels "
                "vs legacy shapes");

    Sizes sizes;
    if (args->smoke) {
        sizes.cache_rows = 1 << 12;
        sizes.cache_ops = 100'000;
        sizes.registry_keys = 20'000;
        sizes.registry_passes = 4;
        sizes.kernel_rows = 1 << 12;
        sizes.kernel_passes = 8;
    }

    std::vector<Metric> metrics;

    // --- cache ---
    // Pinned to the legacy single-list LRU policy: this bench compares
    // the flat-array layout against the std::list LegacyLruCache doing
    // identical work; policy effects (admission declines skip RowCopy)
    // are bench_cache_policy's subject, not this one's.
    GpuCacheOptions lru_only;
    lru_only.segmented = false;
    lru_only.freq_admission = false;
    GpuCache cache(sizes.cache_rows, sizes.dim, lru_only);
    const auto [get_rate, put_rate] = RunCacheBench(cache, sizes);
    LegacyLruCache legacy_cache(sizes.cache_rows, sizes.dim);
    const auto [legacy_get, legacy_put] =
        RunCacheBench(legacy_cache, sizes);
    metrics.push_back(Metric{"cache_get_rate", get_rate, "ops/s"});
    metrics.push_back(Metric{"cache_put_rate", put_rate, "ops/s"});
    metrics.push_back(
        Metric{"legacy_cache_get_rate", legacy_get, "ops/s"});
    metrics.push_back(
        Metric{"legacy_cache_put_rate", legacy_put, "ops/s"});

    // --- registry ---
    GEntryRegistry registry(64, sizes.registry_keys);
    const double registry_rate = RunRegistryBench(registry, sizes);
    LegacyRegistry legacy_registry(64);
    const double legacy_registry_rate =
        RunRegistryBench(legacy_registry, sizes);
    metrics.push_back(
        Metric{"registry_get_or_create_rate", registry_rate, "ops/s"});
    metrics.push_back(Metric{"legacy_registry_get_or_create_rate",
                             legacy_registry_rate, "ops/s"});

    // --- row kernels ---
    RunKernelBench(sizes, metrics);

    // --- speedups + report ---
    metrics.push_back(Metric{"cache_get_speedup",
                             get_rate / legacy_get, "x"});
    metrics.push_back(Metric{"cache_put_speedup",
                             put_rate / legacy_put, "x"});
    metrics.push_back(Metric{"registry_speedup",
                             registry_rate / legacy_registry_rate, "x"});

    TablePrinter table("Hot-path throughput (new vs legacy shape)",
                       {"Path", "New", "Legacy", "Speedup"});
    table.AddRow({"cache get (ops/s)", FormatCount(get_rate),
                  FormatCount(legacy_get),
                  FormatSpeedup(get_rate / legacy_get)});
    table.AddRow({"cache put (ops/s)", FormatCount(put_rate),
                  FormatCount(legacy_put),
                  FormatSpeedup(put_rate / legacy_put)});
    table.AddRow({"registry get-or-create (ops/s)",
                  FormatCount(registry_rate),
                  FormatCount(legacy_registry_rate),
                  FormatSpeedup(registry_rate / legacy_registry_rate)});
    table.Print();

    TablePrinter kernels("Row kernels (dim 32)", {"Kernel", "GB/s"});
    for (const Metric &metric : metrics) {
        if (metric.unit == "GB/s")
            kernels.AddRow({metric.name, FormatDouble(metric.value, 1)});
    }
    kernels.Print();

    WriteJson(metrics, args->out_path);
    return 0;
}
