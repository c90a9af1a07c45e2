// Reset token manager — the paper's m_reset (§4 "Control hazard").
//
// Reset edges in an OSM carry an Inquire on this manager plus discard
// primitives, at higher static priority than the normal edges.  The manager
// rejects inquiries from normal operations; when the model detects a
// mis-speculation it arms the manager with a victim predicate, and at the
// next control step every victim's reset edge fires: tokens are discarded
// and the operation returns to state I ("the speculative operations are
// killed").
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/token_manager.hpp"

namespace osm::uarch {

class reset_manager final : public core::token_manager {
public:
    using predicate = std::function<bool(const core::osm&)>;

    explicit reset_manager(std::string name);

    // ---- TMI ----
    bool can_allocate(core::ident_t, const core::osm&) override { return false; }
    bool can_release(core::ident_t, const core::osm&) override { return false; }
    bool inquire(core::ident_t ident, const core::osm& requester) override;
    void do_allocate(core::ident_t, core::osm&) override {}
    void do_release(core::ident_t, core::osm&) override {}
    void discard(core::ident_t, core::osm&) override {}

    // ---- model interface ----
    /// Accept inquiries from OSMs satisfying `p` (stays armed until
    /// replaced or disarmed — epoch predicates can remain armed forever).
    void arm(predicate p);
    void disarm();
    bool armed() const noexcept { return static_cast<bool>(pred_); }

    /// Number of inquiries accepted (operations killed).
    std::uint64_t kills() const noexcept { return kills_; }

private:
    predicate pred_;
    std::uint64_t kills_ = 0;
};

}  // namespace osm::uarch
