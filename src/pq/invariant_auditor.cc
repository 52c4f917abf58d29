#include "pq/invariant_auditor.h"


#include "common/logging.h"
#include "pq/g_entry_registry.h"

namespace frugal {

void
InvariantAuditor::RecordViolation(const std::string &what)
{
    // relaxed: monotonic counter; the log line carries the context.
    violations_.fetch_add(1, std::memory_order_relaxed);
    FRUGAL_ERROR("invariant violation: " << what);
}

void
InvariantAuditor::BumpChecks(std::uint64_t n)
{
    // relaxed: monotonic stat counter, reported only after joins.
    checks_.fetch_add(n, std::memory_order_relaxed);
}

void
InvariantAuditor::OnStepBoundary(Step completed_step,
                                 const FlushQueue &queue)
{
    BumpChecks(1);
    const auto step = static_cast<std::int64_t>(completed_step);
    // The barrier completion runs single-threaded once per step, so a
    // plain exchange captures the predecessor exactly.
    // relaxed: only this (serialised) callback touches last_step_.
    const std::int64_t last =
        last_step_.exchange(step, std::memory_order_relaxed);
    if (step != last + 1) {
        RecordViolation("step boundary " + std::to_string(step) +
                        " does not follow " + std::to_string(last));
    }
    const std::size_t queue_violations =
        queue.AuditInvariants(/*quiescent=*/false);
    if (queue_violations > 0) {
        // relaxed: see RecordViolation.
        violations_.fetch_add(queue_violations, std::memory_order_relaxed);
    }
}

void
InvariantAuditor::OnClaimBatch(const std::vector<ClaimTicket> &tickets,
                               Step floor)
{
    BumpChecks(tickets.size());
    Priority previous = 0;
    bool first = true;
    for (const ClaimTicket &ticket : tickets) {
        if (ticket.priority != kInfiniteStep && ticket.priority < floor) {
            RecordViolation(
                "claim of priority " + std::to_string(ticket.priority) +
                " below the scan floor " + std::to_string(floor) +
                " — a flushed-late entry the gate already admitted");
        }
        if (!first && ticket.priority < previous) {
            RecordViolation("claim batch not monotone: priority " +
                            std::to_string(ticket.priority) + " after " +
                            std::to_string(previous));
        }
        previous = ticket.priority;
        first = false;
    }
}

void
InvariantAuditor::OnReadViolation(Key key, Step step)
{
    RecordViolation("parameter " + std::to_string(key) +
                    " read at step " + std::to_string(step) +
                    " with pending unflushed writes (gate breach)");
}

void
InvariantAuditor::OnQuiescent(const FlushQueue &queue,
                              GEntryRegistry &registry)
{
    const std::size_t queue_violations =
        queue.AuditInvariants(/*quiescent=*/true);
    if (queue_violations > 0) {
        // relaxed: see RecordViolation.
        violations_.fetch_add(queue_violations, std::memory_order_relaxed);
    }
    registry.ForEach([this](GEntry &entry) {
        BumpChecks(1);
        SpinGuard guard(entry.lock());
        if (entry.hasWritesLocked()) {
            RecordViolation("g-entry " + std::to_string(entry.key()) +
                            " still holds pending writes at shutdown");
        }
        if (entry.enqueuedLocked()) {
            RecordViolation("g-entry " + std::to_string(entry.key()) +
                            " still marked enqueued at shutdown");
        }
        if (!entry.hasWritesLocked() &&
            entry.priorityLocked() != kInfiniteStep) {
            RecordViolation(
                "g-entry " + std::to_string(entry.key()) +
                " has finite priority with an empty W set "
                "(Equation (1) broken)");
        }
    });
}

void
InvariantAuditor::ExpectClean() const
{
    FRUGAL_CHECK_MSG(violations() == 0,
                     "invariant auditor recorded "
                         << violations() << " violation(s) across "
                         << checks() << " checks — see the error log");
}

}  // namespace frugal
