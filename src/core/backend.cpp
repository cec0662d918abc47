#include "core/backend.hpp"

#include <stdexcept>
#include <string>

namespace dwt::core {

hw::Dwt2dSystem ExecutionBackend::make_2d_session(
    const BackendRequest&) const {
  throw std::invalid_argument(std::string(name()) +
                              ": no 2-D session (netlist engines only)");
}

}  // namespace dwt::core
