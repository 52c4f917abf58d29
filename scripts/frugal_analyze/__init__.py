"""frugal_analyze: project-specific static analysis for the Frugal repo.

Eleven checks over the C++ sources (see `python3 scripts/frugal_analyze
--list-checks`):

  layering        module DAG from #include edges (no back-edges)
  lock-rank       static lock-rank inversions in nested guard scopes
  lock-rank-deep  rank inversions through arbitrarily deep call chains,
                  with the full call path in the diagnostic
  spin-blocking   blocking (CV wait, sleep, file I/O, mutex acquisition)
                  or allocation reached while a Spinlock is held (or
                  `spin-block-ok:`)
  atomic-publish  release stores pair with an acquire load somewhere;
                  relaxed stores read cross-class are flagged
  tsa-coverage    GUARDED_BY coverage of members in lock-owning classes
  atomics-relaxed every memory_order_relaxed justified by a `relaxed:` tag
  atomics-raw     raw std::atomic in model-checked dirs needs
                  `modelcheck-exempt:`
  atomics-cmpxchg compare_exchange success/failure order pairs are legal
  retry-loop      bare sleeps route through RetryWithBackoff (or carry
                  `retry-exempt:`)
  hotpath-alloc   hot-list functions are allocation-free (or `alloc-ok:`)

v2 lifts the engine from per-function facts to whole-program analysis:
a call graph over ProjectFacts with receiver-type-aware resolution, and
per-function fixpoint summaries (ranks/blocking/allocs transitively
reached, SCC-condensed so recursion is safe) that the deep checks probe.
See summaries.py and DESIGN.md §11.

One frontend feeds the checks: frontend_internal.py, a dependency-free
lexer-based extractor that runs anywhere Python does, so every host
extracts the same facts. Each run parses every source it is given.
"""

__version__ = "2.0"
