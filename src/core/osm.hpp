// An operation state machine instance (paper §3.1).
//
// Each in-flight machine operation is one osm object: a current state, a
// token buffer of granted resources, a table of dynamic transaction
// identifiers (initialized at decode), and a per-instance edge-enable mask
// that lets one shared graph describe several operation classes (integer
// ops disable the FPU dispatch edge, and so on).  OSMs never communicate
// with each other; their only interaction with the environment is the
// token transactions the director performs on their behalf.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/osm_graph.hpp"

namespace osm::core {

class osm {
public:
    /// Create an instance of `graph` (which must be finalized) resting in
    /// the initial state with an empty token buffer.
    osm(const osm_graph& graph, std::string name);
    virtual ~osm() = default;
    osm(const osm&) = delete;
    osm& operator=(const osm&) = delete;

    const osm_graph& graph() const noexcept { return *graph_; }
    const std::string& name() const noexcept { return name_; }
    /// Unique, stable instance id (creation order).
    std::uint64_t uid() const noexcept { return uid_; }

    // ---- state ----
    state_id state() const noexcept { return state_; }
    const std::string& state_name() const { return graph_->state_name(state_); }
    bool at_initial() const noexcept { return state_ == graph_->initial(); }

    // ---- identifier slots (set during decode, read by primitives) ----
    ident_t ident(std::int32_t slot) const { return idents_[static_cast<std::size_t>(slot)]; }
    void set_ident(std::int32_t slot, ident_t v) {
        idents_.at(static_cast<std::size_t>(slot)) = v;
    }

    // ---- per-instance edge enables ----
    bool edge_enabled(std::int32_t e) const { return enables_[static_cast<std::size_t>(e)] != 0; }
    void set_edge_enabled(std::int32_t e, bool on) {
        enables_.at(static_cast<std::size_t>(e)) = on ? 1 : 0;
    }
    void enable_all_edges();

    // ---- token buffer ----
    const std::vector<token_ref>& token_buffer() const noexcept { return buffer_; }
    bool holds(const token_manager* mgr, ident_t ident) const;
    bool holds_any(const token_manager* mgr) const;

    /// Discard every held token (notifying managers) and return to the
    /// initial state.  Used for whole-model reset; normal speculative
    /// squashing goes through reset edges instead.
    void hard_reset();

    // ---- scheduling metadata ----
    /// Rank stamp: the order in which this OSM last left the initial state
    /// (paper §5 ranks by age).  Idle OSMs carry a large stamp so that
    /// in-flight operations always outrank them.
    std::uint64_t age() const noexcept { return age_; }

    // ---- statistics ----
    std::uint64_t transitions() const noexcept { return transitions_; }
    std::uint64_t blocked_steps() const noexcept { return blocked_steps_; }

private:
    friend class director;

    const osm_graph* graph_;
    std::string name_;
    std::uint64_t uid_;
    state_id state_;
    std::vector<ident_t> idents_;
    std::vector<std::uint8_t> enables_;
    std::vector<token_ref> buffer_;
    std::uint64_t age_;
    std::uint64_t transitions_ = 0;
    std::uint64_t blocked_steps_ = 0;
};

}  // namespace osm::core
