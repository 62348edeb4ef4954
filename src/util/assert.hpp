#pragma once
// Always-on invariant checking. Unlike <cassert> these fire in release
// builds too: the adaption/remapping data structures are intricate enough
// that silent corruption is far more expensive than the branch.
//
// Crash forensics: assert_fail() invokes an optional process-wide abort
// hook exactly once before abort(). obs::install_postmortem() uses it to
// flush the flight-recorder rings to a POSTMORTEM_<name>.json document, so
// a failed PLUM_ASSERT leaves evidence behind instead of destroying it.

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace plum::detail {

/// Everything the failing assertion knows, handed to the abort hook.
struct AbortInfo {
  const char* expr = nullptr;
  const char* file = nullptr;
  int line = 0;
  const char* msg = nullptr;  ///< may be null
};

using AbortHook = void (*)(const AbortInfo&);

/// Process-wide abort hook slot (header-only storage).
inline AbortHook& abort_hook_slot() {
  static AbortHook hook = nullptr;
  return hook;
}

/// Installs (or clears, with nullptr) the hook run once before abort().
/// Returns the previous hook so scoped installers can restore it.
inline AbortHook set_abort_hook(AbortHook hook) {
  AbortHook& slot = abort_hook_slot();
  const AbortHook prev = slot;
  slot = hook;
  return prev;
}

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "plum assertion failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg ? msg : "");
  // Run the postmortem hook at most once, even if the dump itself asserts.
  static std::atomic<bool> dumping{false};
  if (!dumping.exchange(true)) {
    if (const AbortHook hook = abort_hook_slot()) {
      hook(AbortInfo{expr, file, line, msg});
    }
  }
  std::abort();
}

}  // namespace plum::detail

#define PLUM_ASSERT(expr)                                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::plum::detail::assert_fail(#expr, __FILE__, __LINE__, nullptr);     \
  } while (0)

#define PLUM_ASSERT_MSG(expr, msg)                                         \
  do {                                                                     \
    if (!(expr))                                                           \
      ::plum::detail::assert_fail(#expr, __FILE__, __LINE__, msg);         \
  } while (0)
