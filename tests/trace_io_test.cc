/** Tests for trace record/replay, plus the umbrella header compiling. */
#include "frugal/frugal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace frugal {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = "/tmp/frugal_trace_test_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                ".bin";
    }
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_;
};

Trace
MakeTrace()
{
    Rng rng(77);
    ZipfDistribution dist(1000, 0.9);
    return Trace::Synthetic(dist, rng, 12, 3, 16);
}

/** One (step, GPU) list as stored: the count field, then the keys. */
struct RawList
{
    std::uint32_t count;
    std::vector<Key> keys;
};

/**
 * Writes a trace file field by field, with a checksum that matches its
 * body the way SaveTrace computes it (FNV-1a over each count and its
 * keys), so only the loader's own validation can reject it.
 */
void
WriteRawTrace(const std::string &path, std::uint32_t n_gpus,
              std::uint64_t key_space, std::uint64_t steps,
              const std::vector<RawList> &lists)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto put = [&](const auto &value) {
        out.write(reinterpret_cast<const char *>(&value), sizeof(value));
    };
    put(std::uint64_t{0x4652554741'545243ULL});  // magic
    put(std::uint32_t{1});                      // version
    put(n_gpus);
    put(key_space);
    put(steps);
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    const auto mix = [&](const void *data, std::size_t bytes) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            fnv ^= p[i];
            fnv *= 0x100000001b3ULL;
        }
    };
    for (const RawList &list : lists) {
        put(list.count);
        out.write(reinterpret_cast<const char *>(list.keys.data()),
                  static_cast<std::streamsize>(list.keys.size() *
                                               sizeof(Key)));
        mix(&list.count, sizeof(list.count));
        mix(list.keys.data(), list.keys.size() * sizeof(Key));
    }
    put(fnv);
}

TEST_F(TraceIoTest, RoundTripExact)
{
    const Trace original = MakeTrace();
    SaveTrace(original, path_);
    const auto loaded = LoadTrace(path_);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->NumSteps(), original.NumSteps());
    EXPECT_EQ(loaded->n_gpus(), original.n_gpus());
    EXPECT_EQ(loaded->key_space(), original.key_space());
    for (std::size_t s = 0; s < original.NumSteps(); ++s) {
        for (GpuId g = 0; g < original.n_gpus(); ++g)
            ASSERT_EQ(loaded->KeysFor(s, g), original.KeysFor(s, g));
    }
}

TEST_F(TraceIoTest, ReplayTrainsIdentically)
{
    const Trace original = MakeTrace();
    SaveTrace(original, path_);
    const auto replayed = LoadTrace(path_);
    ASSERT_TRUE(replayed.has_value());

    EngineConfig config;
    config.n_gpus = 3;
    config.dim = 4;
    config.key_space = 1000;
    config.flush_threads = 2;
    const GradFn task = MakeLinearGradTask();

    FrugalEngine a(config), b(config);
    a.Run(original, task);
    b.Run(*replayed, task);
    EXPECT_TRUE(TablesBitEqual(a.table(), b.table()));
}

TEST_F(TraceIoTest, MissingFile)
{
    EXPECT_FALSE(LoadTrace("/tmp/definitely-missing-trace.bin")
                     .has_value());
}

TEST_F(TraceIoTest, CorruptChecksumRejected)
{
    SaveTrace(MakeTrace(), path_);
    {
        std::fstream file(path_,
                          std::ios::binary | std::ios::in | std::ios::out);
        file.seekp(80);
        char byte = 0x77;
        file.write(&byte, 1);
    }
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

TEST_F(TraceIoTest, GarbageRejected)
{
    std::ofstream out(path_, std::ios::binary);
    out << "garbage";
    out.close();
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

// Each hostile-input case first loads the well-formed variant of its
// file, so a rejection can only come from the one corrupted field.

TEST_F(TraceIoTest, InflatedKeyCountRejected)
{
    WriteRawTrace(path_, 1, 100, 1, {{2, {1, 2}}});
    ASSERT_TRUE(LoadTrace(path_).has_value());
    // A count of 2^32 - 1 would ask for a 32 GiB key vector.
    WriteRawTrace(path_, 1, 100, 1, {{0xffffffffu, {1, 2}}});
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

TEST_F(TraceIoTest, InflatedStepCountRejected)
{
    WriteRawTrace(path_, 1, 100, 1, {{2, {1, 2}}});
    ASSERT_TRUE(LoadTrace(path_).has_value());
    WriteRawTrace(path_, 1, 100, std::uint64_t{1} << 40, {{2, {1, 2}}});
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

TEST_F(TraceIoTest, InflatedGpuCountRejected)
{
    WriteRawTrace(path_, 1, 100, 1, {{2, {1, 2}}});
    ASSERT_TRUE(LoadTrace(path_).has_value());
    WriteRawTrace(path_, 0xffffffffu, 100, 1, {{2, {1, 2}}});
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

TEST_F(TraceIoTest, KeyOutsideKeySpaceRejected)
{
    WriteRawTrace(path_, 1, 11, 1, {{2, {3, 10}}});
    ASSERT_TRUE(LoadTrace(path_).has_value());
    WriteRawTrace(path_, 1, 10, 1, {{2, {3, 10}}});
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

TEST_F(TraceIoTest, KeyRepeatedWithinListRejected)
{
    // The same key on two GPUs of one step is fine; twice in one
    // (step, GPU) list breaks the trace's dedupe contract.
    WriteRawTrace(path_, 2, 100, 1, {{2, {3, 5}}, {1, {3}}});
    ASSERT_TRUE(LoadTrace(path_).has_value());
    WriteRawTrace(path_, 2, 100, 1, {{3, {3, 5, 3}}, {1, {3}}});
    EXPECT_FALSE(LoadTrace(path_).has_value());
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips)
{
    const Trace empty(std::vector<StepKeys>{}, 10, 2);
    SaveTrace(empty, path_);
    const auto loaded = LoadTrace(path_);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->NumSteps(), 0u);
    EXPECT_EQ(loaded->n_gpus(), 2u);
}

}  // namespace
}  // namespace frugal
