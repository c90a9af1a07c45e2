// Register-file token manager with scoreboarding and optional forwarding —
// the paper's m_r (§4 "Data hazard"), combined with the bypass manager.
//
// Tokens managed:
//   * value tokens, one per register — readers Inquire them (non-exclusive);
//   * register-update tokens, one outstanding per register — a writer
//     Allocates one at issue and Releases it (with the computed value) at
//     write-back.
//
// While a register-update token is held, dependents' value inquiries fail
// (stall) unless forwarding is enabled and the producer has already
// published its result, which models the bypass network.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/token_manager.hpp"

namespace osm::uarch {

/// Identifier scheme shared by register-file style managers: the low bits
/// name the register, bit 32 distinguishes update tokens from value tokens.
constexpr core::ident_t reg_value_ident(unsigned reg) { return reg; }
constexpr core::ident_t reg_update_ident(unsigned reg) {
    return (1ull << 32) | reg;
}
constexpr bool ident_is_update(core::ident_t id) { return (id >> 32) & 1u; }
constexpr unsigned ident_reg(core::ident_t id) {
    return static_cast<unsigned>(id & 0xFFFFFFFFu);
}

/// Scoreboarded register file for in-order pipelines (one outstanding
/// writer per register).  Owns the architectural register values; the
/// committed value is written when the update token is released.
class register_file_manager final : public core::token_manager {
public:
    static constexpr unsigned max_regs = 128;  // up to 4 SMT threads x 32

    /// `regs` — number of architectural registers; `reg0_is_zero` pins
    /// register 0 to zero (VR32 GPR convention).
    register_file_manager(std::string name, unsigned regs, bool reg0_is_zero,
                          bool forwarding);

    // ---- TMI ----
    bool can_allocate(core::ident_t ident, const core::osm& requester) override;
    bool can_release(core::ident_t ident, const core::osm& requester) override;
    bool inquire(core::ident_t ident, const core::osm& requester) override;
    void do_allocate(core::ident_t ident, core::osm& requester) override;
    void do_release(core::ident_t ident, core::osm& requester) override;
    void discard(core::ident_t ident, core::osm& requester) override;
    const core::osm* owner_of(core::ident_t ident) const override;

    // ---- hardware-layer / model interface ----
    /// Producer announces its result early (end of execute): dependents may
    /// forward from here when forwarding is enabled.
    void publish(unsigned reg, std::uint32_t value);

    /// Pending (uncommitted) update value becomes the commit value at
    /// release time; a release without a prior publish commits `fallback`.
    void set_commit_value(unsigned reg, std::uint32_t value) { publish(reg, value); }

    /// Read with bypass: the published pending value when visible, else the
    /// architectural value.  Precondition: inquire(value) would succeed.
    std::uint32_t read(unsigned reg) const;

    /// Architectural (committed) value.
    std::uint32_t arch_read(unsigned reg) const { return arch_[reg]; }
    void arch_write(unsigned reg, std::uint32_t value);

    bool pending(unsigned reg) const { return entries_[reg].writer != nullptr; }
    bool forwarding() const noexcept { return forwarding_; }

private:
    struct update_entry {
        const core::osm* writer = nullptr;
        bool published = false;
        std::uint32_t value = 0;
    };

    unsigned regs_;
    bool reg0_is_zero_;
    bool forwarding_;
    std::array<std::uint32_t, max_regs> arch_{};
    std::array<update_entry, max_regs> entries_{};
};

}  // namespace osm::uarch
