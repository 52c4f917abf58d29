"""Project-specific configuration: module DAG, lock ranks, hot list.

This is the one file that encodes Frugal's architecture; the rest of the
package is generic machinery. DESIGN.md §11 is the prose version — keep
the two in sync.
"""

from __future__ import annotations

from typing import Dict, Optional

# ---------------------------------------------------------------------------
# Module layering. A file in a module of rank r may include modules of
# rank <= r; same-rank includes are allowed (e.g. cache -> table for the
# row kernels). Rank 0 holds the two foundation modules every layer may
# use: frugal/ (annotation macro headers) and check/ (the model-sync
# shims the lock primitives compile against).
# ---------------------------------------------------------------------------

MODULE_RANK: Dict[str, int] = {
    "frugal": 0,
    "check": 0,
    "common": 1,
    "pq": 2,
    "cache": 2,
    "table": 2,
    "data": 3,
    "metrics": 3,
    "models": 3,
    "sim": 3,
    "runtime": 4,
    "api": 5,
}

# Per-file module overrides (src-root-relative). frugal/frugal.h is the
# public umbrella header: it sits *above* everything it re-exports even
# though it lives in the frugal/ directory.
FILE_MODULE_OVERRIDES: Dict[str, str] = {
    "frugal/frugal.h": "api",
}


def module_of(path: str) -> Optional[str]:
    """Module of a src-root-relative path, or None if unmapped."""
    override = FILE_MODULE_OVERRIDES.get(path)
    if override is not None:
        return override
    head = path.split("/", 1)[0]
    return head if head in MODULE_RANK else None


# ---------------------------------------------------------------------------
# Lock ranks (mirrors src/common/lock_rank.h; the analyze fixture test
# cross-checks the values against the header so drift fails loudly).
# Acquiring a lock whose rank is <= any held rank is an inversion.
# ---------------------------------------------------------------------------

LOCK_RANKS: Dict[str, int] = {
    "kUnranked": 0,
    "kRegistry": 10,
    "kRecoverySlot": 15,
    "kGEntry": 20,
    "kFlushQueue": 30,
    "kTableRow": 40,
    "kGpuCache": 50,
}


# ---------------------------------------------------------------------------
# Hot-path allocation-freedom list. Entries match a function's qualified
# name (`Class::Name`) or its unqualified name when given bare; a lambda
# is matched by the variable it is bound to.
# ---------------------------------------------------------------------------

HOT_FUNCTIONS = (
    # FrugalEngine flush data plane (Pipeline stages in frugal_engine.cc):
    # the one claim-apply path every flusher, gate-blocked trainer and
    # watchdog reclaim runs, the per-entry apply under it, and the PQ's
    # locked flush body (pq_ops.h) that apply shares with FlushClaimed.
    "Pipeline::ApplyClaims",
    "Pipeline::FlushEntryRun",
    "FlushWritesLocked",
    "Pipeline::RefreshCache",
    # Trainer gather stage: cache probes, batched miss gather, refills;
    # and the emit stage: model callback into the GPU's reused board
    # slot.
    "Pipeline::Gather",
    "Pipeline::Emit",
    # Per-step registration: the prefetcher plans each future step
    # (sorted records, unique keys, their g-entries) and registers its
    # reads; the step-barrier completion executes the plan, one
    # g-entry lock hold and W-set append per key run, and enqueues the
    # step's newly pending entries through the PQ's batch, whose copies
    # publish per (bucket, shard) after the pass.
    "Pipeline::PlanStep",
    "GEntryRegistry::GetOrCreate",
    "Pipeline::RegisterStep",
    "GEntry::AddWriteLocked",
    "PropagatePriorityBatchedLocked",
    "TwoLevelPQ::BeginBatch",
    "TwoLevelPQ::EnqueueBatched",
    "TwoLevelPQ::PublishBatch",
    "TwoLevelPQ::PublishGroup",
    "AtomicSlotSet::InsertBatch",
    # Two-level PQ dequeue path
    "TwoLevelPQ::DrainBucket",
    # GPU cache operations on the trainer critical path
    "GpuCache::TryGet",
    "GpuCache::Put",
    "GpuCache::UpdateIfPresent",
    # Oracular warm/evict paths: WarmBegin/WarmCommit run on the
    # prefetcher per warmed batch, victim selection and the dead-key
    # sweep per step.
    "GpuCache::WarmBegin",
    "GpuCache::WarmCommit",
    "GpuCache::EvictIfDead",
    "GpuCache::PickVictimLocked",
    # Frequency-aware tiered replacement (DESIGN.md §14): the sketch
    # probe runs on every cache lookup, the admission gate on every
    # miss-driven insert at capacity, the segment ops on every hit.
    "GpuCache::AcquireSlotLocked",
    "GpuCache::PromoteOnHitLocked",
    "GpuCache::TailVictimLocked",
    "FreqSketch::Add",
    "FreqSketch::Estimate",
    # Vectorised row kernels (table/row_kernels.h)
    "RowCopy",
    "RowAxpy",
    "RowSgdApply",
    "RowAdagradApply",
    "CopyBody",
    "AxpyBody",
    "SgdBody",
    "AdagradBody",
    # Batched MLP (models/mlp.cc, DESIGN.md §8): the DLRM grad callback,
    # the block forward/backward, the step hook's fused all-reduce, and
    # the lane kernels: the templated bodies and the entry points of
    # both kernel sets (models/mlp_kernels.h). Their scratch is sized at
    # construction.
    "DlrmModel::TrainSubBatch",
    "Mlp::TrainBatch",
    "Mlp::TrainBlock",
    "Mlp::ForwardBlock",
    "Mlp::PredictBatch",
    "ReplicatedMlp::AllReduceAndStep",
    "ForwardRows",
    "ForwardLayer",
    "BackwardColumns",
    "BackwardInputs",
    "AccumulateRun",
    "AccumulateGradients",
    "AddInto",
    "Descend",
    "ForwardLayerPortable",
    "BackwardInputsPortable",
    "AccumulateGradientsPortable",
    "AddIntoPortable",
    "DescendPortable",
    "ForwardLayerAvx2",
    "BackwardInputsAvx2",
    "AccumulateGradientsAvx2",
    "AddIntoAvx2",
    "DescendAvx2",
)


# Directories (src-root-relative) whose raw std::atomic declarations must
# be model_atomic or carry `modelcheck-exempt:` (check `atomics-raw`).
MODEL_CHECKED_DIRS = ("pq", "common")
