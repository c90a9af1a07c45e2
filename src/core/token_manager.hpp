// Token manager interface (TMI) — the hardware layer's face toward the
// operation layer (paper §3.2, §4).
//
// The protocol is two-phase so that an edge condition (a conjunction of
// primitives) commits all-or-nothing: the director first *queries* every
// primitive (`can_allocate` / `can_release` / `inquire`), and only if all
// succeed does it *commit* them (`do_allocate` / `do_release`).  A manager
// may inspect the requesting OSM's identity when deciding (e.g. the reset
// manager accepts inquiries only from speculative operations).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/token.hpp"

namespace osm::core {

class osm;

/// Abstract token manager.  One manager controls one or more closely
/// related tokens; managers never talk to each other directly.
class token_manager {
public:
    explicit token_manager(std::string name) : name_(std::move(name)) {}
    virtual ~token_manager() = default;
    token_manager(const token_manager&) = delete;
    token_manager& operator=(const token_manager&) = delete;

    const std::string& name() const noexcept { return name_; }

    // ---- query phase ----
    /// Would an allocate of `ident` by `requester` succeed right now?
    virtual bool can_allocate(ident_t ident, const osm& requester) = 0;
    /// Would a release of `ident` by `requester` be accepted right now?
    /// (Refusal models variable latency, paper §4 "Variable latency".)
    virtual bool can_release(ident_t ident, const osm& requester) = 0;
    /// Non-exclusive availability test (paper's Inquire).
    virtual bool inquire(ident_t ident, const osm& requester) = 0;

    // ---- commit phase ----
    /// Transfer ownership of `ident` to `requester`.
    /// Precondition: can_allocate returned true this control step.
    virtual void do_allocate(ident_t ident, osm& requester) = 0;
    /// Accept the return of `ident` from `requester`.
    /// Precondition: can_release returned true this control step.
    virtual void do_release(ident_t ident, osm& requester) = 0;
    /// Unconditional drop of `ident` by `requester` (always succeeds).
    virtual void discard(ident_t ident, osm& requester) = 0;

    // ---- introspection (used by deadlock analysis and tests) ----
    /// Current owner of the token named by `ident`, or nullptr when free /
    /// unknown.  Managers without per-token owners may return nullptr.
    virtual const osm* owner_of(ident_t /*ident*/) const { return nullptr; }

private:
    std::string name_;
};

/// A single exclusive token — the paper's pipeline-stage occupancy manager.
/// All identifiers map to the same token.  An optional release gate models
/// variable latency by refusing the release while the unit is busy.
class unit_token_manager : public token_manager {
public:
    explicit unit_token_manager(std::string name);

    bool can_allocate(ident_t ident, const osm& requester) override;
    bool can_release(ident_t ident, const osm& requester) override;
    bool inquire(ident_t ident, const osm& requester) override;
    void do_allocate(ident_t ident, osm& requester) override;
    void do_release(ident_t ident, osm& requester) override;
    void discard(ident_t ident, osm& requester) override;
    const osm* owner_of(ident_t /*ident*/) const override { return owner_; }

    bool busy() const noexcept { return owner_ != nullptr; }
    const osm* owner() const noexcept { return owner_; }

    /// While `cycles` > 0, releases are refused (the holder stalls); the
    /// hardware layer decrements this each cycle (e.g. a cache miss).
    void hold_for(unsigned cycles) noexcept { hold_ = cycles; }
    unsigned hold_remaining() const noexcept { return hold_; }
    /// Hardware-layer per-cycle update: counts down the hold.
    void tick() noexcept {
        if (hold_ > 0) --hold_;
    }

private:
    const osm* owner_ = nullptr;
    unsigned hold_ = 0;
};

/// N interchangeable tokens (queue slots, rename buffers).  The identifier
/// is ignored for allocation; any free slot is granted.  Releases return
/// one slot held by the requester.
class pool_token_manager : public token_manager {
public:
    pool_token_manager(std::string name, unsigned capacity);

    bool can_allocate(ident_t ident, const osm& requester) override;
    bool can_release(ident_t ident, const osm& requester) override;
    bool inquire(ident_t ident, const osm& requester) override;
    void do_allocate(ident_t ident, osm& requester) override;
    void do_release(ident_t ident, osm& requester) override;
    void discard(ident_t ident, osm& requester) override;

    unsigned capacity() const noexcept { return capacity_; }
    unsigned in_use() const noexcept { return in_use_; }
    unsigned free_slots() const noexcept { return capacity_ - in_use_; }

private:
    unsigned capacity_;
    unsigned in_use_ = 0;
};

}  // namespace osm::core
