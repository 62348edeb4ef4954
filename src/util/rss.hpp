#pragma once
// Resident-set-size sampling from /proc/self/status. Lives in util, the
// bottom layer, so every caller can sample it: the drivers' cycle log (the
// plum-scope/1 stream record) and the benchmark driver.
//
// RSS numbers are wall-class observables: they depend on the allocator,
// the kernel, and whatever else the process did. Everything here is
// excluded from deterministic views by the layers that embed it.

#include <cstdint>
#include <string_view>

namespace plum::util {

/// One sample of the process's resident memory, in bytes. Zero fields mean
/// the corresponding line was absent (non-Linux or unreadable procfs).
struct RssSample {
  std::int64_t vm_rss_bytes = 0;  ///< VmRSS: current resident set
  std::int64_t vm_hwm_bytes = 0;  ///< VmHWM: peak resident set ("high water")
};

/// Parses the text of a /proc/<pid>/status file (exposed separately so the
/// parser is unit-testable without procfs).
[[nodiscard]] RssSample parse_proc_status(std::string_view text);

/// Reads /proc/self/status. Returns a zero sample if it cannot be read.
[[nodiscard]] RssSample read_rss();

}  // namespace plum::util
