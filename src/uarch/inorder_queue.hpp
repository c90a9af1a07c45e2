// In-order queue token manager: models fetch queues and completion
// (reorder) queues.  Allocation appends the requester at the tail (fails
// when full or when this cycle's allocation bandwidth is spent); release is
// only granted to the queue *head* (in-order removal) and is also
// bandwidth-limited per cycle.  The PowerPC-750 model instantiates this for
// its 6-entry fetch queue (2 dispatches/cycle) and its 6-entry completion
// queue (2 retires/cycle).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/token_manager.hpp"

namespace osm::uarch {

class inorder_queue_manager final : public core::token_manager {
public:
    /// `capacity` — queue entries; `alloc_bw`/`release_bw` — per-cycle
    /// token grant limits (0 = unlimited).
    inorder_queue_manager(std::string name, unsigned capacity,
                          unsigned alloc_bw = 0, unsigned release_bw = 0);

    // ---- TMI ----
    bool can_allocate(core::ident_t ident, const core::osm& requester) override;
    bool can_release(core::ident_t ident, const core::osm& requester) override;
    bool inquire(core::ident_t ident, const core::osm& requester) override;
    void do_allocate(core::ident_t ident, core::osm& requester) override;
    void do_release(core::ident_t ident, core::osm& requester) override;
    void discard(core::ident_t ident, core::osm& requester) override;
    const core::osm* owner_of(core::ident_t ident) const override;

    // ---- hardware-layer interface ----
    /// Per-cycle update: resets the bandwidth counters and counts down any
    /// allocation blackout (used to model fetch stalls).
    void tick();

    /// Refuse all allocations for the next `cycles` cycles (e.g. while an
    /// instruction-cache miss is outstanding).
    void block_alloc_for(unsigned cycles) noexcept { block_alloc_ = cycles; }
    bool alloc_blocked() const noexcept { return block_alloc_ > 0; }

    /// Permanently refuse further releases (set when the machine halts, so
    /// nothing younger than the halting instruction can commit).
    void block_release() noexcept { release_blocked_ = true; }
    void unblock_release() noexcept { release_blocked_ = false; }

    unsigned size() const noexcept { return static_cast<unsigned>(queue_.size()); }
    unsigned capacity() const noexcept { return capacity_; }
    bool full() const noexcept { return size() >= capacity_; }
    bool empty() const noexcept { return queue_.empty(); }

    /// Queue occupants, head first.
    const std::vector<const core::osm*>& occupants() const noexcept { return queue_; }
    const core::osm* head() const { return queue_.empty() ? nullptr : queue_.front(); }
    /// Position of `m` from the head, or -1.
    int position_of(const core::osm& m) const;

private:
    unsigned capacity_;
    unsigned alloc_bw_;
    unsigned release_bw_;
    unsigned allocs_this_cycle_ = 0;
    unsigned releases_this_cycle_ = 0;
    unsigned block_alloc_ = 0;
    bool release_blocked_ = false;
    std::vector<const core::osm*> queue_;  // front = head (oldest)
};

}  // namespace osm::uarch
