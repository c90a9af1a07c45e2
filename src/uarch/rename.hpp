// Rename-buffer token manager for out-of-order cores (PowerPC-750 style:
// architectural register files with a shared pool of rename buffers).
//
// Tokens managed (identifier scheme below):
//   * rename/update tokens — a writer Allocates one per destination at
//     dispatch (fails when the buffer pool is exhausted) and Releases it at
//     in-order completion, committing the value architecturally;
//   * value tokens — readers Inquire a *captured dependency*: at dispatch
//     the model calls capture(reg), which snapshots the youngest
//     outstanding writer of the register into an identifier.  This is
//     exactly the paper's "initialize all allocation and inquiry
//     identifiers" step: the identifier names the specific rename entry the
//     reader depends on, so writers dispatched later never disturb it.
//
// An inquiry succeeds when the captured producer has published its result
// (forwarding) or has already committed; several updates to one register
// may be in flight (WAW/WAR eliminated by buffering).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/token_manager.hpp"
#include "uarch/register_file.hpp"

namespace osm::uarch {

class rename_manager final : public core::token_manager {
public:
    static constexpr unsigned max_regs = 64;

    /// Identifier for "depend on rename entry seq" (value inquiry).
    static constexpr core::ident_t entry_ident(std::uint64_t seq) {
        return (1ull << 63) | seq;
    }
    static constexpr bool ident_is_entry(core::ident_t id) { return (id >> 63) & 1u; }
    static constexpr std::uint64_t ident_seq(core::ident_t id) {
        return id & ~(1ull << 63);
    }

    /// Identifier for "the architectural value was final at capture time".
    /// Distinct from a plain reg_value_ident: writers that dispatch *after*
    /// the capture must never satisfy this dependency.
    static constexpr core::ident_t arch_ident(unsigned reg) {
        return (1ull << 62) | reg;
    }
    static constexpr bool ident_is_arch(core::ident_t id) { return (id >> 62) & 1u; }

    rename_manager(std::string name, unsigned regs, unsigned buffers,
                   bool reg0_is_zero);

    // ---- TMI ----
    /// Allocate expects reg_update_ident(reg); Inquire expects either a
    /// captured entry_ident (RS wakeup) or reg_value_ident (dispatch-time
    /// check: youngest writer published or none outstanding).
    bool can_allocate(core::ident_t ident, const core::osm& requester) override;
    bool can_release(core::ident_t ident, const core::osm& requester) override;
    bool inquire(core::ident_t ident, const core::osm& requester) override;
    void do_allocate(core::ident_t ident, core::osm& requester) override;
    void do_release(core::ident_t ident, core::osm& requester) override;
    void discard(core::ident_t ident, core::osm& requester) override;
    const core::osm* owner_of(core::ident_t ident) const override;

    // ---- model interface ----
    /// Snapshot the dependency a reader of `reg` has right now: an
    /// entry_ident of the youngest outstanding writer, or
    /// reg_value_ident(reg) when the architectural value is final.
    /// `self` (may be null) excludes the reader's own rename entry — an
    /// operation that both reads and writes `reg` depends on the writer
    /// *before* it, not on itself.
    core::ident_t capture(unsigned reg, const core::osm* self = nullptr) const;

    /// Writer announces its result; captured dependents may then read it.
    void publish(unsigned reg, const core::osm& writer, std::uint32_t value);

    /// Read through a captured dependency.  Precondition: inquire(ident)
    /// holds.  `reg` is the architectural fallback; `self` excludes the
    /// reader's own rename entry on the plain-ident path.
    std::uint32_t read(core::ident_t ident, unsigned reg,
                       const core::osm* self = nullptr) const;

    std::uint32_t arch_read(unsigned reg) const { return arch_[reg]; }
    void arch_write(unsigned reg, std::uint32_t value);

    unsigned buffers_in_use() const noexcept {
        return static_cast<unsigned>(entries_.size());
    }
    unsigned buffers_total() const noexcept { return buffers_; }
    unsigned writers_of(unsigned reg) const;

private:
    struct rename_entry {
        std::uint64_t seq = 0;
        unsigned reg = 0;
        const core::osm* writer = nullptr;
        bool published = false;
        std::uint32_t value = 0;
    };

    const rename_entry* find_seq(std::uint64_t seq) const;
    /// Youngest (largest-seq) entry for `reg`, or nullptr.
    const rename_entry* youngest(unsigned reg) const;
    /// Youngest entry for `reg` not written by `self`, or nullptr.
    const rename_entry* youngest_excluding(unsigned reg, const core::osm* self) const;
    /// Oldest (smallest-seq) entry for `reg`, or nullptr.
    const rename_entry* oldest(unsigned reg) const;

    unsigned regs_;
    unsigned buffers_;
    bool reg0_is_zero_;
    std::uint64_t next_seq_ = 1;
    std::array<std::uint32_t, max_regs> arch_{};
    std::vector<rename_entry> entries_;  // all active entries, seq-ordered
};

}  // namespace osm::uarch
