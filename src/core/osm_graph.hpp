// The static structure of an operation state machine (paper §3.1).
//
// A graph is shared by every OSM instance of the same operation class:
// states, prioritized edges, and per-edge conditions (conjunctions of token
// transaction primitives) plus an optional commit action carrying the
// operation semantics.  The graph is immutable after finalize(); dynamic
// per-instance data (current state, identifier slots, edge enables, token
// buffer) lives in class osm.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/token.hpp"
#include "core/token_manager.hpp"

namespace osm::core {

class osm;

using state_id = std::int32_t;
inline constexpr state_id no_state = -1;

/// Action invoked when an edge's transactions commit; receives the
/// transitioning OSM (models downcast to their operation subclass).
using edge_action = std::function<void(osm&)>;

/// A guarded, prioritized transition.
struct graph_edge {
    state_id from = no_state;
    state_id to = no_state;
    int priority = 0;  ///< larger value = tried earlier
    std::int32_t index = -1;
    std::vector<primitive> prims;
    edge_action action;
};

/// Immutable-after-finalize state machine structure.
class osm_graph {
public:
    explicit osm_graph(std::string name = "osm");

    const std::string& name() const noexcept { return name_; }

    // ---- construction ----
    state_id add_state(std::string name);
    /// Designate the initial (empty-token-buffer) state I.  Defaults to the
    /// first state added.
    void set_initial(state_id s);
    /// Add an edge; returns its index.  Among edges of one state, larger
    /// `priority` is tried first; ties break by insertion order.
    std::int32_t add_edge(state_id from, state_id to, int priority = 0);

    void edge_allocate(std::int32_t e, token_manager& m, ident_expr id);
    void edge_inquire(std::int32_t e, token_manager& m, ident_expr id);
    void edge_release(std::int32_t e, token_manager& m, ident_expr id);
    void edge_discard(std::int32_t e, token_manager& m, ident_expr id);
    void edge_discard_all(std::int32_t e);
    void edge_set_action(std::int32_t e, edge_action a);

    /// Number of dynamic identifier slots each instance carries.
    void set_ident_slots(std::int32_t n) { ident_slots_ = n; }
    std::int32_t ident_slots() const noexcept { return ident_slots_; }

    /// Freeze the structure: sorts per-state edge lists by priority.
    /// Must be called before instantiating OSMs.
    void finalize();
    bool finalized() const noexcept { return finalized_; }

    // ---- introspection ----
    state_id initial() const noexcept { return initial_; }
    std::int32_t num_states() const noexcept { return static_cast<std::int32_t>(states_.size()); }
    std::int32_t num_edges() const noexcept { return static_cast<std::int32_t>(edges_.size()); }
    const std::string& state_name(state_id s) const { return states_.at(static_cast<std::size_t>(s)); }
    const graph_edge& edge(std::int32_t e) const { return edges_.at(static_cast<std::size_t>(e)); }
    /// Outgoing edge indices of `s`, highest priority first.
    const std::vector<std::int32_t>& out_edges(state_id s) const {
        return out_.at(static_cast<std::size_t>(s));
    }

private:
    graph_edge& mutable_edge(std::int32_t e);

    std::string name_;
    std::vector<std::string> states_;
    std::vector<graph_edge> edges_;
    std::vector<std::vector<std::int32_t>> out_;
    state_id initial_ = no_state;
    std::int32_t ident_slots_ = 0;
    bool finalized_ = false;
};

}  // namespace osm::core
