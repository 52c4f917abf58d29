/** Tests for embedding-table checkpointing (format v2). */
#include "table/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

namespace frugal {
namespace {

EmbeddingTableConfig
SmallConfig()
{
    EmbeddingTableConfig config;
    config.key_space = 64;
    config.dim = 8;
    config.init_seed = 9;
    return config;
}

/** Overwrites one byte at `offset` in the file. */
void
PatchByte(const std::string &path, std::streamoff offset, char byte)
{
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(offset);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
}

/** XORs one byte at `offset` (guaranteed to change it). */
void
FlipByte(const std::string &path, std::streamoff offset)
{
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    ASSERT_TRUE(file.good());
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(offset);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
}

std::size_t
FileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in.good() ? static_cast<std::size_t>(in.tellg()) : 0;
}

void
TruncateFile(const std::string &path, std::size_t keep)
{
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(std::min(keep, contents.size())));
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = "/tmp/frugal_ckpt_test_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                ".bin";
    }
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_;
};

TEST_F(CheckpointTest, RoundTripBitExact)
{
    HostEmbeddingTable table(SmallConfig());
    SgdOptimizer sgd(0.5f);
    std::vector<float> grad(8, 1.0f);
    for (Key k = 0; k < 64; k += 3)
        table.ApplyGradient(k, grad.data(), sgd);

    ASSERT_TRUE(SaveCheckpoint(table, path_));
    HostEmbeddingTable restored(SmallConfig());
    ASSERT_TRUE(LoadCheckpoint(restored, path_));
    EXPECT_TRUE(TablesBitEqual(table, restored));
}

TEST_F(CheckpointTest, ProbeReadsHeader)
{
    HostEmbeddingTable table(SmallConfig());
    CheckpointExtras extras;
    extras.optimizer_name = "sgd";
    extras.next_step = 123;
    ASSERT_TRUE(SaveCheckpoint(table, extras, path_));
    CheckpointInfo info;
    ASSERT_TRUE(ProbeCheckpoint(path_, &info));
    EXPECT_EQ(info.version, 2u);
    EXPECT_EQ(info.key_space, 64u);
    EXPECT_EQ(info.dim, 8u);
    EXPECT_EQ(info.next_step, 123u);
    EXPECT_EQ(info.optimizer_name, "sgd");
    EXPECT_EQ(info.opt_state_floats, 0u);
}

TEST_F(CheckpointTest, AdagradStateRoundTrip)
{
    HostEmbeddingTable table(SmallConfig());
    AdagradOptimizer adagrad(0.1f, 64, 8);
    std::vector<float> grad(8, 0.5f);
    for (Key k = 0; k < 64; k += 5)
        table.ApplyGradient(k, grad.data(), adagrad);

    CheckpointExtras extras;
    extras.optimizer_name = adagrad.Name();
    extras.optimizer_state = adagrad.ExportState();
    extras.next_step = 17;
    ASSERT_TRUE(SaveCheckpoint(table, extras, path_));

    HostEmbeddingTable restored(SmallConfig());
    AdagradOptimizer fresh(0.1f, 64, 8);
    CheckpointExtras loaded;
    ASSERT_TRUE(LoadCheckpoint(restored, path_, &loaded));
    EXPECT_EQ(loaded.optimizer_name, "adagrad");
    EXPECT_EQ(loaded.next_step, 17u);
    ASSERT_TRUE(fresh.ImportState(loaded.optimizer_state));
    EXPECT_TRUE(TablesBitEqual(table, restored));
    EXPECT_EQ(fresh.ExportState(), adagrad.ExportState());
}

TEST_F(CheckpointTest, ImportStateRejectsWrongShape)
{
    AdagradOptimizer adagrad(0.1f, 64, 8);
    EXPECT_FALSE(adagrad.ImportState(std::vector<float>(7, 0.0f)));
    // Stateless SGD accepts only the empty state.
    SgdOptimizer sgd(0.1f);
    EXPECT_TRUE(sgd.ImportState({}));
    EXPECT_FALSE(sgd.ImportState(std::vector<float>(3, 0.0f)));
}

TEST_F(CheckpointTest, MissingFile)
{
    HostEmbeddingTable table(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(table, "/tmp/definitely-missing.bin"));
    EXPECT_FALSE(ProbeCheckpoint("/tmp/definitely-missing.bin", nullptr));
}

TEST_F(CheckpointTest, ShapeMismatchRejected)
{
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    EmbeddingTableConfig other = SmallConfig();
    other.key_space = 128;
    HostEmbeddingTable wrong_rows(other);
    EXPECT_FALSE(LoadCheckpoint(wrong_rows, path_));
    other = SmallConfig();
    other.dim = 16;
    HostEmbeddingTable wrong_dim(other);
    EXPECT_FALSE(LoadCheckpoint(wrong_dim, path_));
}

TEST_F(CheckpointTest, VersionSkewRejected)
{
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    // The version field sits at byte 8, after the 8-byte magic.
    PatchByte(path_, 8, 1);
    CheckpointInfo info;
    ASSERT_TRUE(ProbeCheckpoint(path_, &info));  // magic still valid
    EXPECT_EQ(info.version, 1u);
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, CorruptPayloadRejectedAndTableUntouched)
{
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    FlipByte(path_, 64);  // first row byte, just past the header

    HostEmbeddingTable restored(SmallConfig());
    SgdOptimizer sgd(1.0f);
    std::vector<float> grad(8, 2.0f);
    restored.ApplyGradient(7, grad.data(), sgd);
    HostEmbeddingTable snapshot(SmallConfig());
    snapshot.ApplyGradient(7, grad.data(), sgd);

    EXPECT_FALSE(LoadCheckpoint(restored, path_));
    EXPECT_TRUE(TablesBitEqual(restored, snapshot));  // untouched
}

TEST_F(CheckpointTest, CorruptChecksumRejected)
{
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    const std::size_t size = FileSize(path_);
    ASSERT_GT(size, 8u);
    FlipByte(path_, static_cast<std::streamoff>(size - 1));
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, CorruptResumeCursorRejected)
{
    // The cursor is checksummed too: a flipped step count must not load
    // (it would silently replay or skip training steps).
    HostEmbeddingTable table(SmallConfig());
    CheckpointExtras extras;
    extras.next_step = 40;
    ASSERT_TRUE(SaveCheckpoint(table, extras, path_));
    FlipByte(path_, 32);  // Header::next_step
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, TruncatedHeaderRejected)
{
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    TruncateFile(path_, 32);  // half a header
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
    EXPECT_FALSE(ProbeCheckpoint(path_, nullptr));
}

TEST_F(CheckpointTest, TruncatedRowsRejected)
{
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    TruncateFile(path_, FileSize(path_) / 2);
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, GarbageFileRejected)
{
    std::ofstream out(path_, std::ios::binary);
    out << "not a checkpoint at all";
    out.close();
    HostEmbeddingTable table(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(table, path_));
    EXPECT_FALSE(ProbeCheckpoint(path_, nullptr));
}

TEST_F(CheckpointTest, OversizedOptStateHeaderRejected)
{
    // A corrupt opt_state_floats field must not drive a huge allocation
    // or a successful load.
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    PatchByte(path_, 40 + 5, 0x7f);  // Header::opt_state_floats, high byte
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, InjectedTruncationRejectedOnLoad)
{
    // The injector damages the temp file *after* fsync — exactly the
    // torn write a crash-before-rename would leave. Save reports
    // success (the damage is invisible to it); Load must reject.
    HostEmbeddingTable table(SmallConfig());
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kCheckpointTruncate;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    ASSERT_TRUE(
        SaveCheckpoint(table, CheckpointExtras{}, path_, &injector));
    EXPECT_EQ(injector.fires(FaultSite::kCheckpointTruncate), 1u);
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, InjectedBitFlipRejectedOnLoad)
{
    HostEmbeddingTable table(SmallConfig());
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kCheckpointCorrupt;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    ASSERT_TRUE(
        SaveCheckpoint(table, CheckpointExtras{}, path_, &injector));
    EXPECT_EQ(injector.fires(FaultSite::kCheckpointCorrupt), 1u);
    HostEmbeddingTable restored(SmallConfig());
    EXPECT_FALSE(LoadCheckpoint(restored, path_));
}

TEST_F(CheckpointTest, InjectedTornWriteFailsTransientlyThenRetrySucceeds)
{
    // Unlike kCheckpointTruncate (post-fsync, invisible to Save), the
    // torn write fires *before* fsync: Save itself must report the
    // transient failure, discard the temp file, and leave any previous
    // checkpoint untouched — exactly what the engine's RetryPolicy
    // wrapper needs to retry safely.
    HostEmbeddingTable table(SmallConfig());
    ASSERT_TRUE(SaveCheckpoint(table, path_));
    const std::size_t intact_size = FileSize(path_);
    ASSERT_GT(intact_size, 0u);

    SgdOptimizer sgd(0.5f);
    std::vector<float> grad(8, 2.0f);
    table.ApplyGradient(0, grad.data(), sgd);

    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kCheckpointTornWrite;
    rule.until_hit = 1;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    EXPECT_FALSE(
        SaveCheckpoint(table, CheckpointExtras{}, path_, &injector));
    EXPECT_EQ(injector.fires(FaultSite::kCheckpointTornWrite), 1u);
    // The previous checkpoint survived, byte for byte loadable.
    EXPECT_EQ(FileSize(path_), intact_size);
    HostEmbeddingTable restored(SmallConfig());
    ASSERT_TRUE(LoadCheckpoint(restored, path_));
    // The torn temp file was discarded, not left to confuse recovery.
    EXPECT_EQ(FileSize(path_ + ".tmp"), 0u);

    // Window passed: the retry writes a complete, loadable checkpoint
    // with the new table contents.
    ASSERT_TRUE(
        SaveCheckpoint(table, CheckpointExtras{}, path_, &injector));
    HostEmbeddingTable updated(SmallConfig());
    ASSERT_TRUE(LoadCheckpoint(updated, path_));
    std::vector<float> row(8);
    updated.ReadRow(0, row.data());
    EXPECT_EQ(row[0], table.Row(0)[0]);
}

TEST_F(CheckpointTest, TornWritePayloadControlsBytesKept)
{
    // payload = N keeps exactly N row bytes in the torn temp file;
    // payload 0 means "half the rows". Either way Save fails.
    HostEmbeddingTable table(SmallConfig());
    for (std::uint64_t payload : {std::uint64_t{0}, std::uint64_t{16}}) {
        FaultPlan plan;
        FaultRule rule;
        rule.site = FaultSite::kCheckpointTornWrite;
        rule.until_hit = 1;
        rule.payload = payload;
        plan.rules.push_back(rule);
        FaultInjector injector(plan);
        EXPECT_FALSE(SaveCheckpoint(table, CheckpointExtras{}, path_,
                                    &injector))
            << "payload " << payload;
        EXPECT_EQ(injector.fires(FaultSite::kCheckpointTornWrite), 1u);
    }
}

TEST_F(CheckpointTest, TrainSaveResumeMatchesContinuousRun)
{
    // Train 40 steps, checkpoint, resume into a fresh engine for 40
    // more; must equal one continuous 80-step run (checkpoints are
    // consistency points — §3.3's end-of-training drain).
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 8;
    config.key_space = 64;
    config.flush_threads = 2;
    Rng rng(4);
    ZipfDistribution dist(64, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 80, 2, 8);
    const GradFn task = MakeLinearGradTask();

    FrugalEngine continuous(config);
    continuous.Run(trace, task);

    FrugalEngine phase1(config);
    phase1.Run(trace.Slice(0, 40), task);
    ASSERT_TRUE(SaveCheckpoint(phase1.table(), path_));

    FrugalEngine phase2(config);
    ASSERT_TRUE(LoadCheckpoint(phase2.table(), path_));
    phase2.Run(trace.Slice(40, 80), task);

    EXPECT_TRUE(TablesBitEqual(phase2.table(), continuous.table()));
}

TEST_F(CheckpointTest, MidTrainingCheckpointResumeBitEqual)
{
    // The real interrupt/restore protocol: an engine with checkpoint
    // barriers armed trains with Adagrad, "crashes" after its last
    // barrier, and a fresh engine resumes from the file — replaying the
    // trace suffix must land bit-equal to an uninterrupted run, table
    // AND accumulator state.
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 8;
    config.key_space = 64;
    config.flush_threads = 2;
    config.optimizer = "adagrad";
    Rng rng(11);
    ZipfDistribution dist(64, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 8);
    const GradFn task = MakeLinearGradTask();

    EngineConfig oracle_config = config;
    FrugalEngine oracle(oracle_config);
    oracle.Run(trace, task);

    EngineConfig ckpt_config = config;
    ckpt_config.checkpoint_every_steps = 16;
    ckpt_config.checkpoint_path = path_;
    FrugalEngine interrupted(ckpt_config);
    const RunReport report = interrupted.Run(trace, task);
    EXPECT_EQ(report.recovery.checkpoint_barriers, 2u);  // steps 16, 32

    // "Crash": discard `interrupted`; restore its last barrier (cursor
    // 32) into a brand-new engine and replay the remaining steps.
    FrugalEngine resumed(config);
    const auto cursor = resumed.ResumeFrom(path_);
    ASSERT_TRUE(cursor.has_value());
    EXPECT_EQ(*cursor, 32u);
    resumed.Run(trace.Slice(*cursor, trace.NumSteps()), task);

    EXPECT_TRUE(TablesBitEqual(resumed.table(), oracle.table()));
    EXPECT_EQ(resumed.optimizer().ExportState(),
              oracle.optimizer().ExportState());
}

TEST_F(CheckpointTest, ResumeTwiceLandsBitEqual)
{
    // A resumed run's barriers must store the *global* cursor: train
    // steps 0–39 (barriers after 15 and 31), resume at 32 with barriers
    // armed and "crash" after step 55 (barrier after 47), then resume
    // again. The second cursor is 48, and replaying from it lands
    // bit-equal to one uninterrupted run, table and accumulators.
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 8;
    config.key_space = 64;
    config.flush_threads = 2;
    config.optimizer = "adagrad";
    Rng rng(13);
    ZipfDistribution dist(64, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 64, 2, 8);
    const GradFn task = MakeLinearGradTask();

    FrugalEngine uninterrupted(config);
    uninterrupted.Run(trace, task);

    EngineConfig ckpt_config = config;
    ckpt_config.checkpoint_every_steps = 16;
    ckpt_config.checkpoint_path = path_;
    FrugalEngine first(ckpt_config);
    first.Run(trace.Slice(0, 40), task);

    FrugalEngine second(ckpt_config);
    const auto cursor = second.ResumeFrom(path_);
    ASSERT_TRUE(cursor.has_value());
    ASSERT_EQ(*cursor, 32u);
    second.Run(trace.Slice(*cursor, 56), task);

    FrugalEngine third(config);
    const auto second_cursor = third.ResumeFrom(path_);
    ASSERT_TRUE(second_cursor.has_value());
    EXPECT_EQ(*second_cursor, 48u);
    third.Run(trace.Slice(*second_cursor, trace.NumSteps()), task);

    EXPECT_TRUE(TablesBitEqual(third.table(), uninterrupted.table()));
    EXPECT_EQ(third.optimizer().ExportState(),
              uninterrupted.optimizer().ExportState());
}

TEST_F(CheckpointTest, ResumeFromRejectsOptimizerMismatch)
{
    EngineConfig config;
    config.n_gpus = 1;
    config.dim = 8;
    config.key_space = 64;
    FrugalEngine sgd_engine(config);  // optimizer defaults to "sgd"
    CheckpointExtras extras;
    extras.optimizer_name = "adagrad";
    extras.optimizer_state.assign(64 * 8, 0.0f);
    extras.next_step = 10;
    ASSERT_TRUE(SaveCheckpoint(sgd_engine.table(), extras, path_));
    EXPECT_FALSE(sgd_engine.ResumeFrom(path_).has_value());
}

}  // namespace
}  // namespace frugal
