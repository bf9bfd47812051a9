// Process memory accounting read from /proc/self/status.
//
// The partitioned graph substrate advertises a linear-memory contract
// (docs/architecture.md "Partitioned graph substrate"); these readers back
// the `graph.mem.*` gauges that prove it. Values come from the kernel's
// VmRSS / VmHWM lines, so they reflect true resident pages rather than
// allocator bookkeeping.

#ifndef PRIVIM_COMMON_MEM_STATS_H_
#define PRIVIM_COMMON_MEM_STATS_H_

#include <cstdint>

namespace privim {

/// Snapshot of the process's resident memory, in bytes.
struct MemStats {
  int64_t rss_bytes = 0;  ///< VmRSS: current resident set size.
  int64_t hwm_bytes = 0;  ///< VmHWM: peak resident set size ("high water").
};

/// Reads VmRSS/VmHWM from /proc/self/status. On platforms without procfs
/// (or if parsing fails) both fields are 0 — callers treat 0 as "unknown"
/// rather than an error, since memory gauges are observability, not logic.
MemStats ReadMemStats();

/// Publishes the current MemStats to the `graph.mem.rss_bytes` and
/// `graph.mem.hwm_bytes` gauges. One small file read; privim_cli and
/// privim_serve call it right before they write --metrics-out.
void UpdateGraphMemGauges();

}  // namespace privim

#endif  // PRIVIM_COMMON_MEM_STATS_H_
