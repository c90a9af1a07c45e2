#include "uarch/register_file.hpp"

#include <cassert>

namespace osm::uarch {

register_file_manager::register_file_manager(std::string name, unsigned regs,
                                             bool reg0_is_zero, bool forwarding)
    : token_manager(std::move(name)),
      regs_(regs),
      reg0_is_zero_(reg0_is_zero),
      forwarding_(forwarding) {
    assert(regs <= max_regs);
}

bool register_file_manager::can_allocate(core::ident_t ident, const core::osm&) {
    if (!ident_is_update(ident)) return false;  // value tokens are inquire-only
    const unsigned r = ident_reg(ident);
    if (r >= regs_) return false;
    if (reg0_is_zero_ && r == 0) return true;  // writes to x0 never conflict
    return entries_[r].writer == nullptr;
}

bool register_file_manager::can_release(core::ident_t ident, const core::osm& requester) {
    if (!ident_is_update(ident)) return false;
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return true;
    return entries_[r].writer == &requester;
}

bool register_file_manager::inquire(core::ident_t ident, const core::osm& requester) {
    const unsigned r = ident_reg(ident);
    if (r >= regs_) return false;
    if (ident_is_update(ident)) {
        // Inquiring an update token asks "is the register write port free".
        return entries_[r].writer == nullptr || entries_[r].writer == &requester;
    }
    const update_entry& e = entries_[r];
    if (e.writer == nullptr || e.writer == &requester) return true;
    return forwarding_ && e.published;
}

void register_file_manager::do_allocate(core::ident_t ident, core::osm& requester) {
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return;  // x0 updates are no-ops
    assert(entries_[r].writer == nullptr);
    entries_[r] = {&requester, false, 0};
}

void register_file_manager::do_release(core::ident_t ident, core::osm& requester) {
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return;
    update_entry& e = entries_[r];
    assert(e.writer == &requester);
    (void)requester;
    if (e.published) arch_write(r, e.value);
    e = {};
}

void register_file_manager::discard(core::ident_t ident, core::osm& requester) {
    if (!ident_is_update(ident)) return;
    const unsigned r = ident_reg(ident);
    if (entries_[r].writer == &requester) entries_[r] = {};
}

const core::osm* register_file_manager::owner_of(core::ident_t ident) const {
    return entries_[ident_reg(ident)].writer;
}

void register_file_manager::publish(unsigned reg, std::uint32_t value) {
    if (reg0_is_zero_ && reg == 0) return;
    update_entry& e = entries_[reg];
    e.published = true;
    e.value = value;
}

std::uint32_t register_file_manager::read(unsigned reg) const {
    const update_entry& e = entries_[reg];
    if (e.writer != nullptr && e.published && forwarding_) return e.value;
    return arch_[reg];
}

void register_file_manager::arch_write(unsigned reg, std::uint32_t value) {
    if (reg0_is_zero_ && reg == 0) return;
    arch_[reg] = value;
}

}  // namespace osm::uarch
