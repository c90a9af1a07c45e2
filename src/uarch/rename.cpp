#include "uarch/rename.hpp"

#include <cassert>

namespace osm::uarch {

rename_manager::rename_manager(std::string name, unsigned regs,
                               unsigned buffers, bool reg0_is_zero)
    : token_manager(std::move(name)),
      regs_(regs),
      buffers_(buffers),
      reg0_is_zero_(reg0_is_zero) {
    assert(regs <= max_regs);
}

const rename_manager::rename_entry* rename_manager::find_seq(std::uint64_t seq) const {
    for (const rename_entry& e : entries_) {
        if (e.seq == seq) return &e;
    }
    return nullptr;
}

const rename_manager::rename_entry* rename_manager::youngest(unsigned reg) const {
    return youngest_excluding(reg, nullptr);
}

const rename_manager::rename_entry* rename_manager::youngest_excluding(
    unsigned reg, const core::osm* self) const {
    const rename_entry* best = nullptr;
    for (const rename_entry& e : entries_) {
        if (e.reg != reg || e.writer == self) continue;
        if (best == nullptr || e.seq > best->seq) best = &e;
    }
    return best;
}

const rename_manager::rename_entry* rename_manager::oldest(unsigned reg) const {
    const rename_entry* best = nullptr;
    for (const rename_entry& e : entries_) {
        if (e.reg == reg && (best == nullptr || e.seq < best->seq)) best = &e;
    }
    return best;
}

unsigned rename_manager::writers_of(unsigned reg) const {
    unsigned n = 0;
    for (const rename_entry& e : entries_) {
        if (e.reg == reg) ++n;
    }
    return n;
}

bool rename_manager::can_allocate(core::ident_t ident, const core::osm&) {
    if (!ident_is_update(ident) || ident_is_entry(ident)) return false;
    const unsigned r = ident_reg(ident);
    if (r >= regs_) return false;
    if (reg0_is_zero_ && r == 0) return true;
    return entries_.size() < buffers_;
}

bool rename_manager::can_release(core::ident_t ident, const core::osm& requester) {
    if (!ident_is_update(ident) || ident_is_entry(ident)) return false;
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return true;
    // Per-register in-order commit: only the oldest writer may release.
    const rename_entry* e = oldest(r);
    return e != nullptr && e->writer == &requester;
}

bool rename_manager::inquire(core::ident_t ident, const core::osm& requester) {
    if (ident_is_arch(ident)) return true;  // captured as arch-final
    if (ident_is_entry(ident)) {
        const rename_entry* e = find_seq(ident_seq(ident));
        // Entry gone = the producer committed (or the reader itself was a
        // squash victim, in which case it never executes anyway).
        return e == nullptr || e->published;
    }
    // Plain value ident (used at dispatch time): the youngest outstanding
    // writer — necessarily older than the inquirer, thanks to in-order
    // dispatch, and never the inquirer itself — must have published, or no
    // writer is outstanding.
    const unsigned r = ident_reg(ident);
    if (r >= regs_) return false;
    const rename_entry* e = youngest_excluding(r, &requester);
    return e == nullptr || e->published;
}

void rename_manager::do_allocate(core::ident_t ident, core::osm& requester) {
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return;
    assert(entries_.size() < buffers_);
    entries_.push_back({next_seq_++, r, &requester, false, 0});
}

void rename_manager::do_release(core::ident_t ident, core::osm& requester) {
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->reg == r && it->writer == &requester) {
            assert(oldest(r)->seq == it->seq && "out-of-order commit");
            if (it->published) arch_write(r, it->value);
            entries_.erase(it);
            return;
        }
    }
    assert(false && "release by non-writer");
}

void rename_manager::discard(core::ident_t ident, core::osm& requester) {
    if (!ident_is_update(ident) || ident_is_entry(ident)) return;
    const unsigned r = ident_reg(ident);
    if (reg0_is_zero_ && r == 0) return;
    // Squashes kill youngest first; erase the requester's youngest entry.
    std::vector<rename_entry>::iterator victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->reg == r && it->writer == &requester &&
            (victim == entries_.end() || it->seq > victim->seq)) {
            victim = it;
        }
    }
    if (victim != entries_.end()) entries_.erase(victim);
}

const core::osm* rename_manager::owner_of(core::ident_t ident) const {
    if (ident_is_entry(ident)) {
        const rename_entry* e = find_seq(ident_seq(ident));
        return e != nullptr ? e->writer : nullptr;
    }
    return nullptr;
}

core::ident_t rename_manager::capture(unsigned reg, const core::osm* self) const {
    const rename_entry* best = youngest_excluding(reg, self);
    // No outstanding writer: the architectural value is final *for this
    // reader* — writers dispatched later are younger and must not be seen.
    if (best == nullptr) return arch_ident(reg);
    return entry_ident(best->seq);
}

void rename_manager::publish(unsigned reg, const core::osm& writer,
                             std::uint32_t value) {
    if (reg0_is_zero_ && reg == 0) return;
    // A writer holds at most one outstanding entry per destination; with
    // distinct destinations per op this finds the right one.
    for (rename_entry& e : entries_) {
        if (e.reg == reg && e.writer == &writer) {
            e.published = true;
            e.value = value;
            return;
        }
    }
    assert(false && "publish by non-writer");
}

std::uint32_t rename_manager::read(core::ident_t ident, unsigned reg,
                                   const core::osm* self) const {
    if (ident_is_arch(ident)) return arch_[reg];
    if (ident_is_entry(ident)) {
        const rename_entry* e = find_seq(ident_seq(ident));
        if (e != nullptr) {
            assert(e->published && "reading unpublished rename entry");
            return e->value;
        }
        return arch_[reg];
    }
    // Plain ident: forward from the youngest published writer (other than
    // the reader itself), else the architectural value.
    const rename_entry* e = youngest_excluding(reg, self);
    if (e != nullptr) {
        assert(e->published && "reading past an unpublished writer");
        return e->value;
    }
    return arch_[reg];
}

void rename_manager::arch_write(unsigned reg, std::uint32_t value) {
    if (reg0_is_zero_ && reg == 0) return;
    arch_[reg] = value;
}

}  // namespace osm::uarch
