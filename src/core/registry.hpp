// The backend registry: every engine the build knows about, one
// ExecutionBackend row each, addressable by stable name.  Tools expose the
// names through --backend / list-backends, benches select engines by name,
// and the equivalence tests iterate the registry so a newly registered
// engine is automatically held to the bit-exactness contract its caps()
// declare.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/backend.hpp"

namespace dwt::core {

/// Every registered engine, in presentation order.  The rows live for the
/// whole process; pointers to them are safe to cache.
[[nodiscard]] std::span<const ExecutionBackend> all_backends();

/// Looks an engine up by registry name ("software-float", "software-fixed",
/// "rtl-interpreted", "rtl-compiled", "fpga-mapped").  Returns nullptr for
/// unknown names.
[[nodiscard]] const ExecutionBackend* find_backend(std::string_view name);

/// Registry names joined with `sep` -- for usage strings and diagnostics.
[[nodiscard]] std::string backend_names(std::string_view sep = "|");

}  // namespace dwt::core
