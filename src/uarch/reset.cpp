#include "uarch/reset.hpp"

namespace osm::uarch {

reset_manager::reset_manager(std::string name) : token_manager(std::move(name)) {}

bool reset_manager::inquire(core::ident_t, const core::osm& requester) {
    if (!pred_ || !pred_(requester)) return false;
    ++kills_;
    return true;
}

void reset_manager::arm(predicate p) { pred_ = std::move(p); }

void reset_manager::disarm() { pred_ = nullptr; }

}  // namespace osm::uarch
