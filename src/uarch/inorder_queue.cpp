#include "uarch/inorder_queue.hpp"

#include <algorithm>
#include <cassert>

namespace osm::uarch {

inorder_queue_manager::inorder_queue_manager(std::string name, unsigned capacity,
                                             unsigned alloc_bw, unsigned release_bw)
    : token_manager(std::move(name)),
      capacity_(capacity),
      alloc_bw_(alloc_bw),
      release_bw_(release_bw) {}

bool inorder_queue_manager::can_allocate(core::ident_t, const core::osm&) {
    if (block_alloc_ > 0) return false;
    if (queue_.size() >= capacity_) return false;
    if (alloc_bw_ != 0 && allocs_this_cycle_ >= alloc_bw_) return false;
    return true;
}

bool inorder_queue_manager::can_release(core::ident_t, const core::osm& requester) {
    if (release_blocked_) return false;
    if (queue_.empty() || queue_.front() != &requester) return false;
    if (release_bw_ != 0 && releases_this_cycle_ >= release_bw_) return false;
    return true;
}

bool inorder_queue_manager::inquire(core::ident_t, const core::osm& requester) {
    // "Am I at the head?" — used by operations that must wait for seniority
    // without giving up their entry.
    return !queue_.empty() && queue_.front() == &requester;
}

void inorder_queue_manager::do_allocate(core::ident_t, core::osm& requester) {
    assert(queue_.size() < capacity_);
    queue_.push_back(&requester);
    ++allocs_this_cycle_;
}

void inorder_queue_manager::do_release(core::ident_t, core::osm& requester) {
    assert(!queue_.empty() && queue_.front() == &requester);
    (void)requester;
    queue_.erase(queue_.begin());
    ++releases_this_cycle_;
}

void inorder_queue_manager::discard(core::ident_t, core::osm& requester) {
    const auto it = std::find(queue_.begin(), queue_.end(), &requester);
    if (it != queue_.end()) queue_.erase(it);
}

const core::osm* inorder_queue_manager::owner_of(core::ident_t) const {
    return head();
}

void inorder_queue_manager::tick() {
    allocs_this_cycle_ = 0;
    releases_this_cycle_ = 0;
    if (block_alloc_ > 0) --block_alloc_;
}

int inorder_queue_manager::position_of(const core::osm& m) const {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i] == &m) return static_cast<int>(i);
    }
    return -1;
}

}  // namespace osm::uarch
