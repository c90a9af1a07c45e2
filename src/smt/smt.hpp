// SMT: simultaneous-multithreaded pipeline model (paper §6).
//
// "When modeling MT with OSM, each OSM carries a tag indicating the thread
// that it belongs to.  The tags are used as part of the identifiers for
// token transactions and may contribute to the ranking of the OSMs."
//
// Both mechanisms are implemented here: a single register-file manager
// serves every hardware thread through thread-tagged identifiers
// (thread*32 + reg), and an optional ranking policy boosts a foreground
// thread's operations ahead of the others in the director.  The pipeline
// is a shared 4-stage in-order core (F, X = execute, W) with per-thread
// fetch state, per-thread control-hazard epochs and a configurable fetch
// policy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/director.hpp"
#include "core/osm.hpp"
#include "core/osm_graph.hpp"
#include "core/sim_kernel.hpp"
#include "core/token_manager.hpp"
#include "isa/iss.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "stats/stats.hpp"
#include "uarch/register_file.hpp"
#include "uarch/reset.hpp"

namespace osm::smt {

inline constexpr unsigned max_threads = 4;

/// How the shared fetch stage picks the next thread.
enum class fetch_policy {
    round_robin,  ///< strict rotation over live threads
    icount,       ///< thread with the fewest operations in flight
};

struct smt_config {
    unsigned threads = 2;  ///< 1..max_threads
    bool forwarding = false;
    fetch_policy policy = fetch_policy::round_robin;
    /// Thread whose operations outrank the others in the director (-1 =
    /// plain age ranking) — the paper's "tags may contribute to the
    /// ranking".
    int priority_thread = -1;
    unsigned num_osms = 8;
    bool decode_cache = true;  ///< cache pre-decoded instructions by (pc, word)
    unsigned decode_cache_entries = 4096;
};

struct smt_stats {
    std::uint64_t cycles = 0;
    std::array<std::uint64_t, max_threads> retired{};
    std::array<std::uint64_t, max_threads> fetched{};

    std::uint64_t total_retired() const {
        std::uint64_t n = 0;
        for (const auto r : retired) n += r;
        return n;
    }
    double ipc() const {
        return cycles == 0 ? 0.0
                           : static_cast<double>(total_retired()) /
                                 static_cast<double>(cycles);
    }
};

/// An in-flight operation with its thread tag.
class smt_op final : public core::osm {
public:
    using core::osm::osm;
    unsigned thread = 0;
    bool past_end = false;
    std::uint32_t epoch = 0;
    isa::decoded_inst di{};
    std::uint32_t pc = 0;
};

/// The multithreaded pipeline model.
class smt_model {
public:
    smt_model(const smt_config& cfg, mem::main_memory& memory);

    /// Load `img` as thread `t`'s program (memory is shared; threads should
    /// use disjoint text/data ranges).
    void load(unsigned t, const isa::program_image& img);

    /// Adopt checkpointed architectural state as thread 0 (call on a fresh
    /// model): registers, fetch pc, done flag and console.
    void restore_arch(const isa::arch_state& st, const std::string& console);

    /// Run until every thread halts or `max_cycles`.  Returns cycles.
    std::uint64_t run(std::uint64_t max_cycles = ~0ull);

    bool thread_done(unsigned t) const { return done_.at(t); }
    bool all_done() const;
    /// True once every loaded thread's exit has *retired* (not merely been
    /// fetched, which is when `done_` flips): the architectural notion of
    /// halted.  `all_done()` goes true while the exit is still in flight,
    /// so single-cycle steppers must use this instead.
    bool drained() const;
    const smt_stats& stats() const noexcept { return stats_; }
    std::uint32_t gpr(unsigned t, unsigned r) const {
        return m_r_.arch_read(t * 32 + r);
    }
    /// Thread `t`'s next-fetch pc.
    std::uint32_t pc(unsigned t) const { return pc_.at(t); }
    const std::string& console() const { return host_.console(); }
    const isa::decode_cache_stats& decode_stats() const noexcept { return dcode_.stats(); }

    /// Structured report of every counter (JSON-renderable).
    stats::report make_report() const;

    core::director& dir() noexcept { return dir_; }
    core::sim_kernel& kernel() noexcept { return kern_; }
    const core::osm_graph& graph() const noexcept { return graph_; }

private:
    void build();
    unsigned pick_thread();
    unsigned in_flight(unsigned t) const;

    void act_fetch(smt_op& o);
    void act_execute(smt_op& o);
    void act_retire(smt_op& o);
    void note_thread_exit();

    smt_config cfg_;
    mem::main_memory& mem_;
    isa::decode_cache dcode_;
    core::unit_token_manager m_f_, m_x_, m_w_;
    uarch::register_file_manager m_r_;
    uarch::reset_manager m_reset_;
    core::osm_graph graph_;
    core::director dir_;
    core::sim_kernel kern_;
    std::vector<std::unique_ptr<smt_op>> ops_;
    isa::syscall_host host_;

    std::array<std::uint32_t, max_threads> pc_{};
    std::array<std::uint32_t, max_threads> epoch_{};
    std::array<bool, max_threads> loaded_{};
    std::array<bool, max_threads> done_{};
    unsigned rr_next_ = 0;
    unsigned halts_retired_ = 0;
    smt_stats stats_;
};

}  // namespace osm::smt
