// Implementation of the OSM core: graph construction, instance state,
// token managers, and the director's scheduling algorithm.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>

#include "core/director.hpp"
#include "core/osm.hpp"
#include "core/osm_graph.hpp"
#include "core/token_manager.hpp"

namespace osm::core {

namespace {
// Relaxed atomic: serve workers construct engines (and therefore OSMs)
// concurrently; uids only need to be unique, not globally ordered.
std::atomic<std::uint64_t> g_next_uid{1};
/// Idle OSMs rank after any in-flight one; see osm::age().
constexpr std::uint64_t k_idle_age_base = 1ull << 40;
}  // namespace

// ---- osm_graph -------------------------------------------------------------

osm_graph::osm_graph(std::string name) : name_(std::move(name)) {}

state_id osm_graph::add_state(std::string name) {
    assert(!finalized_);
    states_.push_back(std::move(name));
    out_.emplace_back();
    const auto s = static_cast<state_id>(states_.size() - 1);
    if (initial_ == no_state) initial_ = s;
    return s;
}

void osm_graph::set_initial(state_id s) {
    assert(!finalized_);
    assert(s >= 0 && s < num_states());
    initial_ = s;
}

std::int32_t osm_graph::add_edge(state_id from, state_id to, int priority) {
    assert(!finalized_);
    assert(from >= 0 && from < num_states() && to >= 0 && to < num_states());
    graph_edge e;
    e.from = from;
    e.to = to;
    e.priority = priority;
    e.index = static_cast<std::int32_t>(edges_.size());
    edges_.push_back(std::move(e));
    out_[static_cast<std::size_t>(from)].push_back(edges_.back().index);
    return edges_.back().index;
}

graph_edge& osm_graph::mutable_edge(std::int32_t e) {
    assert(!finalized_);
    return edges_.at(static_cast<std::size_t>(e));
}

void osm_graph::edge_allocate(std::int32_t e, token_manager& m, ident_expr id) {
    mutable_edge(e).prims.push_back({prim_kind::allocate, &m, id});
}
void osm_graph::edge_inquire(std::int32_t e, token_manager& m, ident_expr id) {
    mutable_edge(e).prims.push_back({prim_kind::inquire, &m, id});
}
void osm_graph::edge_release(std::int32_t e, token_manager& m, ident_expr id) {
    mutable_edge(e).prims.push_back({prim_kind::release, &m, id});
}
void osm_graph::edge_discard(std::int32_t e, token_manager& m, ident_expr id) {
    mutable_edge(e).prims.push_back({prim_kind::discard, &m, id});
}
void osm_graph::edge_discard_all(std::int32_t e) {
    mutable_edge(e).prims.push_back({prim_kind::discard_all, nullptr, ident_expr{}});
}
void osm_graph::edge_set_action(std::int32_t e, edge_action a) {
    mutable_edge(e).action = std::move(a);
}

void osm_graph::finalize() {
    assert(!finalized_);
    assert(initial_ != no_state && "graph needs at least one state");
    for (auto& list : out_) {
        std::stable_sort(list.begin(), list.end(),
                         [this](std::int32_t a, std::int32_t b) {
                             return edges_[static_cast<std::size_t>(a)].priority >
                                    edges_[static_cast<std::size_t>(b)].priority;
                         });
    }
    finalized_ = true;
}

// ---- osm -------------------------------------------------------------------

osm::osm(const osm_graph& graph, std::string name)
    : graph_(&graph),
      name_(std::move(name)),
      uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)),
      state_(graph.initial()),
      idents_(static_cast<std::size_t>(graph.ident_slots()), 0),
      enables_(static_cast<std::size_t>(graph.num_edges()), 1),
      age_(k_idle_age_base + uid_) {
    assert(graph.finalized() && "finalize the graph before instantiating");
}

void osm::enable_all_edges() {
    std::fill(enables_.begin(), enables_.end(), std::uint8_t{1});
}

bool osm::holds(const token_manager* mgr, ident_t ident) const {
    for (const token_ref& t : buffer_) {
        if (t.mgr == mgr && t.ident == ident) return true;
    }
    return false;
}

bool osm::holds_any(const token_manager* mgr) const {
    for (const token_ref& t : buffer_) {
        if (t.mgr == mgr) return true;
    }
    return false;
}

void osm::hard_reset() {
    for (token_ref& t : buffer_) t.mgr->discard(t.ident, *this);
    buffer_.clear();
    state_ = graph_->initial();
    age_ = k_idle_age_base + uid_;
    enable_all_edges();
}

// ---- token managers ---------------------------------------------------------

unit_token_manager::unit_token_manager(std::string name)
    : token_manager(std::move(name)) {}

bool unit_token_manager::can_allocate(ident_t, const osm&) {
    return owner_ == nullptr;
}

bool unit_token_manager::can_release(ident_t, const osm& requester) {
    return owner_ == &requester && hold_ == 0;
}

bool unit_token_manager::inquire(ident_t, const osm& requester) {
    return owner_ == nullptr || owner_ == &requester;
}

void unit_token_manager::do_allocate(ident_t, osm& requester) {
    assert(owner_ == nullptr);
    owner_ = &requester;
}

void unit_token_manager::do_release(ident_t, osm& requester) {
    assert(owner_ == &requester);
    (void)requester;
    owner_ = nullptr;
}

void unit_token_manager::discard(ident_t, osm& requester) {
    if (owner_ == &requester) {
        owner_ = nullptr;
        hold_ = 0;
    }
}

pool_token_manager::pool_token_manager(std::string name, unsigned capacity)
    : token_manager(std::move(name)), capacity_(capacity) {}

bool pool_token_manager::can_allocate(ident_t, const osm&) {
    return in_use_ < capacity_;
}

bool pool_token_manager::can_release(ident_t ident, const osm& requester) {
    return requester.holds(this, ident);
}

bool pool_token_manager::inquire(ident_t, const osm&) {
    return in_use_ < capacity_;
}

void pool_token_manager::do_allocate(ident_t, osm&) {
    assert(in_use_ < capacity_);
    ++in_use_;
}

void pool_token_manager::do_release(ident_t, osm&) {
    assert(in_use_ > 0);
    --in_use_;
}

void pool_token_manager::discard(ident_t, osm&) {
    // Called once per buffered token; each buffered token accounts for one
    // slot.
    if (in_use_ > 0) --in_use_;
}

// ---- director ----------------------------------------------------------------

director::director() {
    rank_ = [](const osm& m) { return static_cast<std::int64_t>(m.age()); };
}

void director::add(osm& m) { osms_.push_back(&m); }

void director::remove(osm& m) {
    osms_.erase(std::remove(osms_.begin(), osms_.end(), &m), osms_.end());
}

bool director::condition_satisfied(osm& m, const graph_edge& e) {
    ++stats_.conditions_evaluated;
    for (const primitive& p : e.prims) {
        ++stats_.primitives_evaluated;
        const ident_t ident = p.mgr ? resolve(m, p.ident) : 0;
        if (ident == k_null_ident) continue;  // disabled transaction
        switch (p.kind) {
            case prim_kind::allocate:
                if (!p.mgr->can_allocate(ident, m)) return false;
                break;
            case prim_kind::inquire:
                if (!p.mgr->inquire(ident, m)) return false;
                break;
            case prim_kind::release:
                if (!m.holds(p.mgr, ident)) return false;
                if (!p.mgr->can_release(ident, m)) return false;
                break;
            case prim_kind::discard:
            case prim_kind::discard_all:
                break;  // always succeed
        }
    }
    return true;
}

void director::commit(osm& m, const graph_edge& e) {
    for (const primitive& p : e.prims) {
        const ident_t ident = p.mgr ? resolve(m, p.ident) : 0;
        if (ident == k_null_ident) continue;  // disabled transaction
        switch (p.kind) {
            case prim_kind::allocate:
                p.mgr->do_allocate(ident, m);
                m.buffer_.push_back({p.mgr, ident});
                break;
            case prim_kind::release: {
                p.mgr->do_release(ident, m);
                auto& buf = m.buffer_;
                for (auto it = buf.begin(); it != buf.end(); ++it) {
                    if (it->mgr == p.mgr && it->ident == ident) {
                        buf.erase(it);
                        break;
                    }
                }
                break;
            }
            case prim_kind::discard: {
                auto& buf = m.buffer_;
                for (auto it = buf.begin(); it != buf.end(); ++it) {
                    if (it->mgr == p.mgr && it->ident == ident) {
                        p.mgr->discard(ident, m);
                        buf.erase(it);
                        break;
                    }
                }
                break;
            }
            case prim_kind::discard_all:
                for (token_ref& t : m.buffer_) t.mgr->discard(t.ident, m);
                m.buffer_.clear();
                break;
            case prim_kind::inquire:
                break;
        }
    }

    const bool leaving_initial =
        (e.from == m.graph_->initial()) && (e.to != m.graph_->initial());
    m.state_ = e.to;
    if (leaving_initial) m.age_ = ++age_counter_;
    if (e.to == m.graph_->initial()) {
        // Back to I: the token buffer must be empty by the paper's
        // definition of the initial state.
        assert(m.buffer_.empty() && "token buffer not empty on return to I");
        m.age_ = (1ull << 40) + m.uid();
    }
    ++m.transitions_;
    ++stats_.transitions;
    if (e.action) e.action(m);
    if (observer_) observer_(m, e);
}

bool director::try_transition(osm& m) {
    const auto& out = m.graph_->out_edges(m.state_);
    for (const std::int32_t ei : out) {
        if (!m.edge_enabled(ei)) continue;
        const graph_edge& e = m.graph_->edge(ei);
        if (condition_satisfied(m, e)) {
            commit(m, e);
            return true;
        }
    }
    if (!out.empty()) ++m.blocked_steps_;
    return false;
}

unsigned director::control_step() {
    ++stats_.control_steps;
    // updateOSMList (paper Fig. 3): rank every OSM once, then insertion-sort
    // — the list is small and nearly sorted between steps, and evaluating
    // the rank function N times (not N log N) keeps this off the profile.
    const std::size_t n = osms_.size();
    keys_.resize(n);
    work_.resize(n);
    if (custom_rank_) {
        for (std::size_t i = 0; i < n; ++i) {
            work_[i] = osms_[i];
            keys_[i] = rank_(*osms_[i]);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            work_[i] = osms_[i];
            keys_[i] = static_cast<std::int64_t>(osms_[i]->age());
        }
    }
    for (std::size_t i = 1; i < n; ++i) {
        osm* m = work_[i];
        const std::int64_t k = keys_[i];
        std::size_t j = i;
        while (j > 0 && keys_[j - 1] > k) {
            keys_[j] = keys_[j - 1];
            work_[j] = work_[j - 1];
            --j;
        }
        keys_[j] = k;
        work_[j] = m;
    }

    unsigned transitions = 0;
    std::size_t i = 0;
    while (i < work_.size()) {
        osm* m = work_[i];
        if (try_transition(*m)) {
            ++transitions;
            work_.erase(work_.begin() + static_cast<std::ptrdiff_t>(i));
            if (cfg_.restart_on_transition && i != 0) {
                // Restart from the highest-ranked remaining OSM: the
                // transition may have freed a resource a senior blocked on.
                i = 0;
                ++stats_.outer_restarts;
            }
            // Without restart, `i` now indexes the next OSM.
        } else {
            ++i;
        }
    }

    if (transitions == 0 && cfg_.deadlock_check) check_deadlock();
    return transitions;
}

void director::check_deadlock() {
    // Build the wait-for graph: an OSM waits on the owner of any token whose
    // allocate/inquire currently fails on an enabled out-edge.
    std::map<const osm*, std::vector<const osm*>> waits;
    for (osm* m : osms_) {
        for (const std::int32_t ei : m->graph().out_edges(m->state())) {
            if (!m->edge_enabled(ei)) continue;
            const graph_edge& e = m->graph().edge(ei);
            for (const primitive& p : e.prims) {
                if (p.kind != prim_kind::allocate && p.kind != prim_kind::inquire) continue;
                const ident_t ident = resolve(*m, p.ident);
                if (ident == k_null_ident) continue;
                const bool ok = (p.kind == prim_kind::allocate)
                                    ? p.mgr->can_allocate(ident, *m)
                                    : p.mgr->inquire(ident, *m);
                if (ok) continue;
                const osm* owner = p.mgr->owner_of(ident);
                if (owner != nullptr && owner != m) waits[m].push_back(owner);
            }
        }
    }

    // DFS cycle detection.
    std::map<const osm*, int> color;  // 0 white, 1 grey, 2 black
    std::vector<const osm*> stack;
    std::function<bool(const osm*)> dfs = [&](const osm* v) -> bool {
        color[v] = 1;
        stack.push_back(v);
        const auto it = waits.find(v);
        if (it != waits.end()) {
            for (const osm* w : it->second) {
                if (color[w] == 1) {
                    stack.push_back(w);
                    return true;
                }
                if (color[w] == 0 && dfs(w)) return true;
            }
        }
        color[v] = 2;
        stack.pop_back();
        return false;
    };
    for (const auto& [v, _] : waits) {
        if (color[v] == 0 && dfs(v)) {
            std::string msg = "cyclic token dependency:";
            for (const osm* s : stack) {
                msg += ' ';
                msg += s->name();
                msg += "(" + s->graph().state_name(s->state()) + ")";
            }
            throw deadlock_error(msg);
        }
    }
}

}  // namespace osm::core
