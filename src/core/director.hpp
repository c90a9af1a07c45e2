// The director: deterministic coordinator of all OSMs (paper §3.4, Fig. 3).
//
// Each control step the director ranks the OSMs, then repeatedly offers
// every machine the chance to take its highest-priority satisfied edge.
// Transactions of a satisfied condition commit simultaneously (two-phase
// against the token managers).  Scheduling rules:
//   * at most one transition per OSM per control step;
//   * a transition fires as soon as an outgoing edge's condition holds;
//   * higher-priority edges win.
// The Fig. 3 algorithm restarts the outer loop from the highest-ranked
// remaining OSM after every transition; the case studies use age ranking,
// under which no senior depends on a junior, so restart can be disabled
// (config::restart_on_transition) — an ablation measured in the benches.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/osm.hpp"

namespace osm::core {

/// Thrown when the deadlock detector finds a cyclic token dependency
/// between two or more OSMs (paper: "the director will abort").
class deadlock_error : public std::runtime_error {
public:
    explicit deadlock_error(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/// Aggregate scheduling statistics.
struct director_stats {
    std::uint64_t control_steps = 0;
    std::uint64_t transitions = 0;
    std::uint64_t conditions_evaluated = 0;
    std::uint64_t primitives_evaluated = 0;
    std::uint64_t outer_restarts = 0;
};

/// Deterministic scheduler for a set of OSMs.
class director {
public:
    struct config {
        /// Restart the outer loop from the highest-ranked remaining OSM
        /// after each transition (Fig. 3 behaviour).  The case-study models
        /// disable this (paper §5): with age ranking no senior operation
        /// waits on a junior one.
        bool restart_on_transition = true;
        /// After a zero-transition step with blocked allocations, search the
        /// wait-for graph for cycles and throw deadlock_error.
        bool deadlock_check = false;
    };

    /// Ranking function: smaller key = higher rank = scheduled first.
    using rank_fn = std::function<std::int64_t(const osm&)>;

    director();

    /// Register an OSM (not owned).  Order of registration breaks ranking
    /// ties, keeping behaviour deterministic.
    void add(osm& m);
    void remove(osm& m);
    const std::vector<osm*>& osms() const noexcept { return osms_; }

    /// Replace the ranking policy.  Default: by age (paper §5) — in-flight
    /// seniors first, idle machines last in registration order.  The
    /// default is special-cased to avoid an indirect call per OSM per step.
    void set_rank(rank_fn fn) {
        rank_ = std::move(fn);
        custom_rank_ = true;
    }

    config& cfg() noexcept { return cfg_; }
    const director_stats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = {}; }

    /// Execute one control step (paper Fig. 3).  Returns the number of
    /// state transitions performed.
    unsigned control_step();

    /// Observer invoked after every committed transition (tracing,
    /// statistics).  Pass nullptr to disable; costs one branch per
    /// transition when unset.
    using transition_observer = std::function<void(const osm&, const graph_edge&)>;
    void set_observer(transition_observer obs) { observer_ = std::move(obs); }

    /// Evaluate whether `m` can currently take `e` (query phase only; no
    /// commitment).  Exposed for analysis and tests.
    bool condition_satisfied(osm& m, const graph_edge& e);

private:
    bool try_transition(osm& m);
    void commit(osm& m, const graph_edge& e);
    void check_deadlock();

    ident_t resolve(const osm& m, const ident_expr& ie) const {
        return ie.slot >= 0 ? m.ident(ie.slot) : ie.fixed;
    }

    std::vector<osm*> osms_;
    std::vector<osm*> work_;         // scratch for control_step
    std::vector<std::int64_t> keys_;  // scratch rank keys
    rank_fn rank_;
    bool custom_rank_ = false;
    transition_observer observer_;
    config cfg_;
    director_stats stats_;
    std::uint64_t age_counter_ = 0;
};

}  // namespace osm::core
