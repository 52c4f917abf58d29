#include "runtime/watchdog.h"

#include <utility>

#include "common/logging.h"

namespace frugal {

bool
ProgressSnapshot::AdvancedSince(const ProgressSnapshot &other) const
{
    return current_step != other.current_step ||
           prefetch_frontier != other.prefetch_frontier ||
           updates_emitted != other.updates_emitted ||
           updates_applied != other.updates_applied ||
           pq_size != other.pq_size || run_complete != other.run_complete;
}

const char *
StallKindName(StallKind kind)
{
    switch (kind) {
    case StallKind::kNone:
        return "none";
    case StallKind::kDeadFlusher:
        return "dead-flusher";
    case StallKind::kClaimLeak:
        return "claim-leak";
    case StallKind::kEmptyQueueIdle:
        return "empty-queue-idle";
    case StallKind::kUnknown:
        break;
    }
    return "unknown";
}

Watchdog::Watchdog(Config config, SnapshotFn snapshot, RecoverFn recover,
                   DiagnoseFn diagnose)
    : config_(config), snapshot_(std::move(snapshot)),
      recover_(std::move(recover)), diagnose_(std::move(diagnose))
{
    FRUGAL_CHECK_MSG(snapshot_ != nullptr, "watchdog needs a snapshot fn");
    FRUGAL_CHECK_MSG(config_.poll.count() > 0, "watchdog poll must be > 0");
    FRUGAL_CHECK_MSG(config_.stall_deadline >= config_.poll,
                     "stall deadline shorter than one poll period");
}

Watchdog::~Watchdog() { Stop(); }

void
Watchdog::Start()
{
    FRUGAL_CHECK_MSG(!started_, "watchdog started twice");
    started_ = true;
    {
        MutexLock lock(mutex_);
        stop_requested_ = false;
    }
    thread_ = std::thread([this] { Loop(); });
}

void
Watchdog::Stop()
{
    if (!started_)
        return;
    {
        MutexLock lock(mutex_);
        stop_requested_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    started_ = false;
}

StallKind
Watchdog::Classify(const ProgressSnapshot &snap)
{
    if (snap.run_complete)
        return StallKind::kNone;
    // Dead flushers are definitive — report them first even if other
    // symptoms are present, since they are the one thing recovery can
    // actually fix.
    if (snap.dead_flushers > 0)
        return StallKind::kDeadFlusher;
    if (snap.pq_size != 0)
        return StallKind::kUnknown;
    // Emitted counts records once they are registered, so unapplied
    // work with an empty PQ can only be claimed by someone who isn't
    // flushing it. The two counters are sampled without mutual
    // ordering, so `applied` can momentarily read ahead of `emitted`.
    return snap.updates_emitted > snap.updates_applied
               ? StallKind::kClaimLeak
               : StallKind::kEmptyQueueIdle;
}

void
Watchdog::Loop()
{
    ProgressSnapshot last = snapshot_();
    auto last_progress = std::chrono::steady_clock::now();
    bool stall_reported = false;

    for (;;) {
        {
            // Plain timed wait plus explicit re-checks (not the
            // predicate overload, whose lambda would read the guarded
            // flag from an unannotated std context): a spurious wakeup
            // merely costs one early poll.
            MutexLock lock(mutex_);
            if (stop_requested_)
                return;
            mutex_.WaitFor(cv_, config_.poll);
            if (stop_requested_)
                return;
        }
        // relaxed: monotonic stat counter, read for reporting only.
        polls_.fetch_add(1, std::memory_order_relaxed);

        const ProgressSnapshot snap = snapshot_();
        const auto now = std::chrono::steady_clock::now();
        if (snap.AdvancedSince(last)) {
            last = snap;
            last_progress = now;
            stall_reported = false;
        }

        // Definitive failures are acted on immediately — no need to wait
        // out the deadline when a flusher has declared itself dead.
        if (snap.dead_flushers > 0 && recover_) {
            // relaxed: monotonic stat counter, read for reporting only.
            stalls_detected_.fetch_add(1, std::memory_order_relaxed);
            FRUGAL_WARN("watchdog: dead flush thread(s) detected ("
                        << snap.dead_flushers << " dead, "
                        << snap.abandoned_claims << " abandoned claims)");
            const auto t0 = std::chrono::steady_clock::now();
            const bool acted = recover_(StallKind::kDeadFlusher);
            const auto dt = std::chrono::steady_clock::now() - t0;
            // relaxed: monotonic stat counter, read for reporting only.
            recovery_ns_.fetch_add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count(),
                std::memory_order_relaxed);
            if (acted) {
                // relaxed: monotonic stat counter, reporting only.
                recoveries_.fetch_add(1, std::memory_order_relaxed);
                last = snapshot_();
                last_progress = std::chrono::steady_clock::now();
                stall_reported = false;
            }
            continue;
        }

        if (snap.run_complete)
            continue;
        if (now - last_progress < config_.stall_deadline || stall_reported)
            continue;

        // Past the deadline with no progress: classify and diagnose.
        // Timing-based stalls are *reported*, not auto-recovered — on a
        // loaded machine (TSan, CI) a healthy run can blow any deadline,
        // and acting on a merely-slow thread would corrupt accounting.
        stall_reported = true;
        // relaxed: monotonic stat counter, read for reporting only.
        stalls_detected_.fetch_add(1, std::memory_order_relaxed);
        const StallKind kind = Classify(snap);
        FRUGAL_WARN(
            "watchdog: no progress for "
            << std::chrono::duration_cast<std::chrono::milliseconds>(
                   now - last_progress)
                   .count()
            << " ms, classified as " << StallKindName(kind)
            << " (step=" << snap.current_step
            << " emitted=" << snap.updates_emitted
            << " applied=" << snap.updates_applied
            << " pq=" << snap.pq_size << ")");
        if (diagnose_) {
            const std::string dump = diagnose_();
            if (!dump.empty())
                FRUGAL_WARN("watchdog diagnosis:\n" << dump);
        }
        if (recover_) {
            const auto t0 = std::chrono::steady_clock::now();
            const bool acted = recover_(kind);
            const auto dt = std::chrono::steady_clock::now() - t0;
            // relaxed: monotonic stat counter, read for reporting only.
            recovery_ns_.fetch_add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count(),
                std::memory_order_relaxed);
            if (acted) {
                // relaxed: monotonic stat counter, reporting only.
                recoveries_.fetch_add(1, std::memory_order_relaxed);
                last = snapshot_();
                last_progress = std::chrono::steady_clock::now();
                stall_reported = false;
            }
        }
    }
}

std::uint64_t
Watchdog::stalls_detected() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return stalls_detected_.load(std::memory_order_relaxed);
}

std::uint64_t
Watchdog::recoveries() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return recoveries_.load(std::memory_order_relaxed);
}

std::uint64_t
Watchdog::polls() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return polls_.load(std::memory_order_relaxed);
}

double
Watchdog::recovery_seconds() const
{
    // relaxed: monotonic stat counter, read for reporting only.
    return static_cast<double>(recovery_ns_.load(std::memory_order_relaxed)) *
           1e-9;
}

void
Watchdog::Harvest(RecoveryCounters *out) const
{
    out->stalls_detected += stalls_detected();
    out->watchdog_recoveries += recoveries();
    out->watchdog_polls += polls();
    out->recovery_seconds += recovery_seconds();
}

}  // namespace frugal
