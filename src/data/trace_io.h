/**
 * @file
 * Trace serialisation: record a workload's key trace to a file and
 * replay it later. Production embedding systems capture access traces
 * to reproduce performance incidents and to drive benchmarks against
 * real traffic; the same capability lets this repository's experiments
 * be frozen and replayed exactly.
 *
 * Format: header (magic, version, n_gpus, key_space, steps), then per
 * (step, gpu) a u32 count followed by that many u64 keys, then a
 * trailing FNV checksum.
 */
#ifndef FRUGAL_DATA_TRACE_IO_H_
#define FRUGAL_DATA_TRACE_IO_H_

#include <optional>
#include <string>

#include "data/trace.h"

namespace frugal {

/** Writes `trace` to `path` (atomically); fatal on I/O errors. */
void SaveTrace(const Trace &trace, const std::string &path);

/**
 * Loads a trace from `path`.
 * @return the trace, or nullopt if the file is missing, malformed, or
 *         fails its checksum; if a length field claims more than the
 *         file holds; or if a key lies outside the key space or repeats
 *         within one (step, GPU) list. What it allocates stays
 *         proportional to the file's size.
 */
std::optional<Trace> LoadTrace(const std::string &path);

}  // namespace frugal

#endif  // FRUGAL_DATA_TRACE_IO_H_
