// Execution tiers for the compiled tape engine.
//
// The levelized instruction tape (see tape.hpp) can be executed two ways,
// bit-identical over the same LaneBlock<W> state:
//
//   kSwitch   -- the per-instruction `switch` interpreter loop.  Portable,
//                and it runs every settle with fault overlays at W=1 and on
//                kFull tapes.
//   kNative   -- the tape lowered to straight-line x86-64 machine code in
//                an mmap'd executable buffer (native_block.hpp): scalar for
//                W=1, VEX/AVX2 for W=4.  Selected by runtime CPU-feature
//                detection.  At W=4 on fault-overlay-safe tapes settles
//                with forced lanes run natively too, pinning each result
//                with the interpreter's masks, so campaign results stay
//                byte-identical.
//
// kAuto, the default everywhere a tier is plumbed through options structs,
// resolves to the fastest supported tier (native where the host allows,
// the interpreter otherwise).  The DWT_EXEC_TIER environment variable
// ("interpreter" | "native" | "auto") overrides every programmatic request
// -- the kill-switch that keeps the interpreter exercised.  Any other
// non-empty value also selects the interpreter, so a typo cannot leave the
// JIT running.
#pragma once

#include <string>

namespace dwt::rtl::compiled {

enum class ExecTier {
  kAuto = 0,    // resolve to the fastest supported tier
  kSwitch = 1,  // per-instruction switch interpreter
  kNative = 3,  // JIT'd straight-line machine code
  // The retired computed-goto tier, now the interpreter under its old
  // name: perfbench/layers.cpp's tier ablation still spells it.  Do not
  // use it in new code.
  kThreaded = kSwitch,
};

[[nodiscard]] const char* to_string(ExecTier tier);

/// Parses "auto" | "interpreter" | "switch" | "native".
/// Returns false (leaving *out untouched) on anything else.
[[nodiscard]] bool parse_exec_tier(const std::string& text, ExecTier* out);

/// True when the native emitter can target this host for tapes of `words`
/// lane words per slot: x86-64 always for words == 1 (scalar 64-bit code),
/// AVX2 required for words == 4 (VEX 256-bit code); false for any other
/// width.
[[nodiscard]] bool native_supported(unsigned words);

/// Maps a requested tier to the concrete tier that should run, applying (in
/// order): the DWT_EXEC_TIER environment override (an unparsable value
/// selects kSwitch and is reported once per process on stderr), kAuto
/// resolution, and the native-support fallback to kSwitch.  Never returns
/// kAuto.
[[nodiscard]] ExecTier resolve_exec_tier(ExecTier requested, unsigned words);

}  // namespace dwt::rtl::compiled
