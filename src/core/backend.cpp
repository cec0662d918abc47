#include "core/backend.hpp"

#include <stdexcept>
#include <string>

namespace dwt::core {

std::unique_ptr<Backend2dSession> ExecutionBackend::make_2d_session(
    const BackendRequest&) const {
  throw std::invalid_argument(std::string(name()) +
                              ": 2-D transform not supported");
}

}  // namespace dwt::core
