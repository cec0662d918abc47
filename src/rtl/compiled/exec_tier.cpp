#include "rtl/compiled/exec_tier.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace dwt::rtl::compiled {

const char* to_string(ExecTier tier) {
  switch (tier) {
    case ExecTier::kAuto:
      return "auto";
    case ExecTier::kSwitch:
      return "interpreter";
    case ExecTier::kNative:
      return "native";
  }
  return "?";
}

bool parse_exec_tier(const std::string& text, ExecTier* out) {
  if (text == "auto") {
    *out = ExecTier::kAuto;
  } else if (text == "interpreter" || text == "switch") {
    *out = ExecTier::kSwitch;
  } else if (text == "native") {
    *out = ExecTier::kNative;
  } else {
    return false;
  }
  return true;
}

bool native_supported(unsigned words) {
#if defined(__x86_64__) || defined(_M_X64)
  if (words == 1) return true;
#if defined(__GNUC__) || defined(__clang__)
  return words == 4 && __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
#else
  (void)words;
  return false;
#endif
}

ExecTier resolve_exec_tier(ExecTier requested, unsigned words) {
  // The environment override wins over every programmatic request: it is
  // the operational kill-switch (disable the JIT fleet-wide) and the CI
  // lever that forces the interpreter through full workloads.  A value it
  // cannot parse fails safe to the interpreter.
  if (const char* env = std::getenv("DWT_EXEC_TIER");
      env != nullptr && *env != '\0') {
    ExecTier from_env = ExecTier::kSwitch;
    if (!parse_exec_tier(env, &from_env)) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "DWT_EXEC_TIER=%s is not interpreter|native|auto; "
                     "running the interpreter\n",
                     env);
      }
    }
    if (from_env != ExecTier::kAuto) requested = from_env;
  }
  if (requested == ExecTier::kAuto) {
    requested =
        native_supported(words) ? ExecTier::kNative : ExecTier::kSwitch;
  }
  if (requested == ExecTier::kNative && !native_supported(words)) {
    return ExecTier::kSwitch;
  }
  return requested;
}

}  // namespace dwt::rtl::compiled
