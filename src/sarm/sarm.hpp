// SARM: StrongARM-like 5-stage pipelined processor modeled with OSMs —
// the paper's first case study (Fig. 5, Fig. 6, §5.1).
//
// Pipeline: F (fetch), D (decode), E (execute), B (buffer / memory),
// W (write-back); state I is the unused-OSM state.  Hardware layer:
// I-cache + ITLB and D-cache + DTLB over a shared bus to memory, a
// combined register file + forwarding network per register file (GPR,
// FPR), a multiplier unit, and a reset manager for control hazards.
//
// Every behaviour the paper walks through in §4 is expressed exactly as
// described there:
//   structure hazards — stage occupancy tokens (one unit manager each);
//   data hazards      — register value/update tokens with forwarding;
//   variable latency  — cache misses refuse the fetch/buffer token release;
//   control hazards   — m_reset + prioritized reset edges kill wrong-path
//                       operations after a taken branch redirects fetch.
//
// The OSM graph is either hand-built (build_graph()) or elaborated from an
// OSM-DL text (adl::sarm_osmdl(), the `adl` engine) onto this same
// hardware layer and the same edge actions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adl/adl.hpp"
#include "core/director.hpp"
#include "core/osm.hpp"
#include "core/osm_graph.hpp"
#include "core/sim_kernel.hpp"
#include "core/token_manager.hpp"
#include "isa/iss.hpp"
#include "stats/stats.hpp"
#include "isa/program.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "mem/tlb.hpp"
#include "mem/write_buffer.hpp"
#include "uarch/register_file.hpp"
#include "uarch/reset.hpp"

namespace osm::sarm {

/// Static model configuration.
struct sarm_config {
    bool forwarding = true;         ///< bypass network present (ablation knob)
    bool director_restart = false;  ///< paper §5: age rank needs no restart
    bool deadlock_check = false;
    unsigned num_osms = 8;          ///< OSM pool size (>= in-flight max + idle)
    unsigned mem_latency = 12;      ///< DRAM cycles
    unsigned mul_extra = 0;         ///< extra multiplier/divider cycles (silicon-revision knob)
    bool write_buffer = false;      ///< SA-110-style store buffer hides store miss latency
    bool decode_cache = true;       ///< cache pre-decoded instructions by (pc, word)
    unsigned decode_cache_entries = 4096;
    mem::write_buffer_config wbuf{};
    mem::bus_config bus{};
    mem::cache_config icache{"icache", 16 * 1024, 32, 32,
                             mem::replacement::lru, mem::write_policy::write_back, 1};
    mem::cache_config dcache{"dcache", 16 * 1024, 32, 32,
                             mem::replacement::lru, mem::write_policy::write_back, 1};
    mem::tlb_config itlb{32, 12, 18};
    mem::tlb_config dtlb{32, 12, 18};
};

/// Run statistics.
struct sarm_stats {
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t branches = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t redirects = 0;
    std::uint64_t kills = 0;
    // Stall attribution (cycles a stage token was held for extra latency).
    std::uint64_t fetch_hold_cycles = 0;  ///< I-cache / ITLB misses
    std::uint64_t mem_hold_cycles = 0;    ///< D-cache / DTLB misses
    std::uint64_t exec_hold_cycles = 0;   ///< multi-cycle execute (mul/div/FP)

    double ipc() const {
        return cycles == 0 ? 0.0 : static_cast<double>(retired) / static_cast<double>(cycles);
    }
};

/// An in-flight operation: the OSM instance plus its decoded instruction
/// and dataflow context (the paper's operation-layer object).
class sarm_op final : public core::osm {
public:
    sarm_op(const core::osm_graph& g, std::string name) : core::osm(g, std::move(name)) {}

    isa::decoded_inst di{};
    std::uint32_t pc = 0;
    std::uint32_t epoch = 0;
    isa::exec_out ex{};
};

/// The complete StrongARM-like micro-architecture simulator.
class sarm_model {
public:
    /// With an empty `osmdl` the model runs its hand-built graph; otherwise
    /// the graph is elaborated from that OSM-DL text, which binds the
    /// managers() and the actions fetch/execute/mem/buffer_exit/retire by
    /// name (adl::adl_error on a bad text).
    sarm_model(const sarm_config& cfg, mem::main_memory& memory, std::string_view osmdl = {});

    /// Load a program and reset all machine state.
    void load(const isa::program_image& img);

    /// Adopt checkpointed architectural state.  Call after load() (which
    /// resets the pipeline); this overwrites registers, fetch pc, halt flag
    /// and console so execution resumes from the quiesced boundary.
    void restore_arch(const isa::arch_state& st, const std::string& console);

    /// Simulate until halt or `max_cycles`.  Returns cycles executed.
    std::uint64_t run(std::uint64_t max_cycles = ~0ull);

    bool halted() const noexcept { return halted_; }
    const sarm_stats& stats() const noexcept { return stats_; }

    /// Architectural state after (or during) simulation.
    std::uint32_t gpr(unsigned r) const { return m_r_.arch_read(r); }
    std::uint32_t fpr(unsigned r) const { return m_fr_.arch_read(r); }
    /// Next-fetch pc (speculative: may point past the halt after the end).
    std::uint32_t fetch_pc() const noexcept { return fetch_pc_; }
    const std::string& console() const { return host_.console(); }

    /// Structured report of every counter (JSON-renderable).
    stats::report make_report() const;

    core::director& dir() noexcept { return dir_; }
    core::sim_kernel& kernel() noexcept { return kern_; }
    const core::osm_graph& graph() const noexcept { return machine_ ? machine_->graph : graph_; }
    /// The token managers (the hardware layer's TMIs) by name.
    adl::manager_registry managers();
    const mem::cache& icache() const noexcept { return icache_; }
    const mem::cache& dcache() const noexcept { return dcache_; }
    const mem::write_buffer& store_buffer() const noexcept { return wbuf_; }
    const uarch::register_file_manager& gpr_file() const noexcept { return m_r_; }
    const isa::decode_cache_stats& decode_stats() const noexcept { return dcode_.stats(); }

private:
    void build_graph();
    void elaborate_graph(std::string_view osmdl);
    void on_cycle();

    // Edge actions.
    void act_fetch(sarm_op& o);
    void act_execute(sarm_op& o);
    void act_mem(sarm_op& o);
    void act_buffer_exit(sarm_op& o);
    void act_retire(sarm_op& o);

    sarm_config cfg_;
    mem::main_memory& mem_;

    // Timing hierarchy: caches -> shared bus -> DRAM.
    mem::fixed_latency_mem dram_t_;
    mem::bus bus_;
    mem::cache icache_;
    mem::cache dcache_;
    mem::tlb itlb_;
    mem::tlb dtlb_;
    mem::write_buffer wbuf_;
    isa::decode_cache dcode_;

    // Token managers (the hardware layer's TMIs).
    core::unit_token_manager m_f_, m_d_, m_e_, m_b_, m_w_, m_mul_;
    uarch::register_file_manager m_r_;
    uarch::register_file_manager m_fr_;
    uarch::reset_manager m_reset_;

    core::osm_graph graph_;
    std::unique_ptr<adl::machine> machine_;  ///< the graph elaborated from OSM-DL, if any
    core::director dir_;
    core::sim_kernel kern_;
    std::vector<std::unique_ptr<sarm_op>> ops_;

    isa::syscall_host host_;

    // Fetch engine state.
    std::uint32_t fetch_pc_ = 0;
    std::uint32_t epoch_ = 0;
    bool redirect_pending_ = false;
    std::uint32_t redirect_target_ = 0;

    bool halted_ = false;
    sarm_stats stats_;
    std::uint64_t kills_at_load_ = 0;
    std::uint64_t cycles_at_load_ = 0;
};

/// Identifier slot layout shared by the SARM graph and its actions.
enum sarm_slot : std::int32_t {
    slot_gpr_s1 = 0,
    slot_gpr_s2 = 1,
    slot_fpr_s1 = 2,
    slot_fpr_s2 = 3,
    slot_gpr_dst = 4,
    slot_fpr_dst = 5,
    slot_mul = 6,
    sarm_slot_count = 7,
};

}  // namespace osm::sarm
