// P750: PowerPC-750-like dual-issue out-of-order superscalar processor
// modeled with OSMs — the paper's second case study (§5.2, Fig. 2).
//
// Micro-architecture (mirroring the units the paper enumerates):
//   * 6-entry fetch queue, up to 2 fetches and 2 in-order dispatches/cycle;
//   * 6 function units — IU1 (simple integer), IU2 (integer + mul/div),
//     FPU, LSU, SRU (system ops), BPU (branches) — each with its own
//     single-entry reservation station;
//   * register rename buffers (shared pools for GPRs and FPRs);
//   * 6-entry completion queue, in-order retirement up to 2/cycle;
//   * BHT (512 x 2-bit) + BTIC branch prediction with speculative fetch
//     past predicted branches and squash-on-mispredict via reset edges.
//
// The operation OSM follows paper Fig. 2: from the fetch queue an operation
// issues *directly* into its unit when the unit and all source operands are
// available (higher-priority edge), otherwise it enters the unit's
// reservation station and issues from there once its captured operand
// dependencies publish — the typical superscalar behaviour the paper notes
// L-charts cannot express but an OSM models with prioritized parallel
// edges.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
#include "uarch/inorder_queue.hpp"
#include "uarch/predictor.hpp"
#include "uarch/rename.hpp"
#include "uarch/reset.hpp"

namespace osm::ppc750 {

/// Function units.
enum class unit : std::uint8_t { iu1 = 0, iu2, fpu, lsu, sru, bpu, count_ };
inline constexpr unsigned num_units = static_cast<unsigned>(unit::count_);

const char* unit_name(unit u);

/// Static model configuration.
struct p750_config {
    unsigned fetch_queue = 6;
    unsigned completion_queue = 6;
    unsigned fetch_bw = 2;
    unsigned dispatch_bw = 2;
    unsigned retire_bw = 2;
    unsigned gpr_renames = 6;
    unsigned fpr_renames = 6;
    unsigned bht_entries = 512;
    unsigned btic_entries = 64;
    unsigned num_osms = 16;
    unsigned mem_latency = 12;
    bool director_restart = false;  ///< paper §5: age rank needs no restart
    bool deadlock_check = false;
    bool decode_cache = true;       ///< cache pre-decoded instructions by (pc, word)
    unsigned decode_cache_entries = 4096;
    mem::bus_config bus{};
    mem::cache_config icache{"icache", 32 * 1024, 32, 8,
                             mem::replacement::lru, mem::write_policy::write_back, 1};
    mem::cache_config dcache{"dcache", 32 * 1024, 32, 8,
                             mem::replacement::lru, mem::write_policy::write_back, 1};
    mem::tlb_config dtlb{64, 12, 20};
};

/// Run statistics.
struct p750_stats {
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t direct_issues = 0;  ///< fetch queue -> unit (Fig. 2 e1)
    std::uint64_t rs_issues = 0;      ///< reservation station -> unit (e3)
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t squashed = 0;
    std::array<std::uint64_t, num_units> unit_busy_cycles{};

    double ipc() const {
        return cycles == 0 ? 0.0 : static_cast<double>(retired) / static_cast<double>(cycles);
    }
};

/// An in-flight operation.
class p750_op final : public core::osm {
public:
    p750_op(const core::osm_graph& g, std::string name) : core::osm(g, std::move(name)) {}

    isa::decoded_inst di{};
    std::uint32_t pc = 0;
    std::uint64_t fetch_seq = 0;
    std::uint32_t fetch_epoch = 0;
    unit fu = unit::iu1;
    bool predicted_taken = false;
    std::uint32_t predicted_target = 0;
    isa::exec_out ex{};
    bool has_store_entry = false;
    bool issued_from_rs = false;
};

/// The complete P750 micro-architecture simulator.
class p750_model {
public:
    p750_model(const p750_config& cfg, mem::main_memory& memory);

    void load(const isa::program_image& img);
    /// Adopt checkpointed architectural state (call after load()): registers,
    /// fetch pc, halt flag and console; queues/renames/stores stay reset.
    void restore_arch(const isa::arch_state& st, const std::string& console);
    std::uint64_t run(std::uint64_t max_cycles = ~0ull);

    bool halted() const noexcept { return halted_; }
    const p750_stats& stats() const noexcept { return stats_; }

    /// Structured report of counters and queue-occupancy histograms.
    stats::report make_report() const;

    /// Fetch/completion queue occupancy, sampled each cycle.
    const stats::histogram& fq_occupancy() const noexcept { return fq_occ_; }
    const stats::histogram& cq_occupancy() const noexcept { return cq_occ_; }

    std::uint32_t gpr(unsigned r) const { return m_gpr_.arch_read(r); }
    std::uint32_t fpr(unsigned r) const { return m_fpr_.arch_read(r); }
    /// Next-fetch pc (speculative: may point past the halt after the end).
    std::uint32_t fetch_pc() const noexcept { return fetch_pc_; }
    const std::string& console() const { return host_.console(); }

    /// Debug/trace hook invoked at each in-order retirement.
    std::function<void(const p750_op&)> on_retire;

    core::director& dir() noexcept { return dir_; }
    core::sim_kernel& kernel() noexcept { return kern_; }
    const core::osm_graph& graph() const noexcept { return graph_; }
    const uarch::bht& branch_history() const noexcept { return bht_; }
    const isa::decode_cache_stats& decode_stats() const noexcept { return dcode_.stats(); }

private:
    struct store_entry {
        const p750_op* owner = nullptr;
        std::uint32_t addr = 0;
        unsigned size = 0;
        std::uint32_t old_bytes = 0;  // saved word for undo
        bool squashed = false;
    };

    void build_graph();
    void on_cycle();
    static unit select_unit(const isa::decoded_inst& di);

    // Edge actions.
    void act_fetch(p750_op& o);
    void act_enter_rs(p750_op& o);
    void act_issue(p750_op& o);
    void act_finish(p750_op& o);
    void act_retire(p750_op& o);
    void act_squash(p750_op& o);

    void resolve_branch(p750_op& o);
    void undo_store(const store_entry& s);
    void drain_squashed_stores();

    p750_config cfg_;
    mem::main_memory& mem_;

    mem::fixed_latency_mem dram_t_;
    mem::bus bus_;
    mem::cache icache_;
    mem::cache dcache_;
    mem::tlb dtlb_;
    isa::decode_cache dcode_;

    // TMI-enabled modules (19 in the paper's model; enumerated here).
    uarch::inorder_queue_manager m_fq_;   // 1 fetch queue
    uarch::inorder_queue_manager m_cq_;   // 2 completion queue
    uarch::rename_manager m_gpr_;         // 3 GPR file + renames
    uarch::rename_manager m_fpr_;         // 4 FPR file + renames
    uarch::reset_manager m_reset_;        // 5 reset manager
    std::array<std::unique_ptr<core::unit_token_manager>, num_units> m_unit_;  // 6-11
    std::array<std::unique_ptr<core::unit_token_manager>, num_units> m_rs_;    // 12-17
    // (18-19: BHT and BTIC live purely in the hardware layer, as in the
    // paper; the I/D caches likewise.)
    uarch::bht bht_;
    uarch::btic btic_;

    /// Per-unit edge indices into graph_ (filled by build_graph).
    struct unit_edges {
        std::int32_t q_to_x = -1;
        std::int32_t q_to_r = -1;
        std::int32_t r_to_x = -1;
        std::int32_t x_to_c = -1;
    };
    std::array<unit_edges, num_units> edges_{};

    core::osm_graph graph_;
    core::director dir_;
    core::sim_kernel kern_;
    std::vector<std::unique_ptr<p750_op>> ops_;

    isa::syscall_host host_;

    // Fetch engine.
    std::uint32_t fetch_pc_ = 0;
    std::uint32_t epoch_ = 0;
    std::uint64_t next_fetch_seq_ = 1;
    std::uint32_t last_fetch_line_ = ~0u;
    bool redirect_pending_ = false;
    std::uint32_t redirect_target_ = 0;
    std::uint64_t kill_seq_ = ~0ull;

    // Store write-through with undo (LSU executes memory ops in program
    // order; squashed stores are rolled back youngest-first).
    std::deque<store_entry> store_queue_;

    stats::histogram fq_occ_{8};
    stats::histogram cq_occ_{8};

    bool halted_ = false;
    p750_stats stats_;
    std::uint64_t kills_at_load_ = 0;
    std::uint64_t cycles_at_load_ = 0;
};

/// Identifier slot layout for the P750 graph.
enum p750_slot : std::int32_t {
    p_slot_g_s1 = 0,   ///< GPR source 1 (plain at dispatch, captured in RS)
    p_slot_g_s2 = 1,
    p_slot_f_s1 = 2,
    p_slot_f_s2 = 3,
    p_slot_g_dst = 4,  ///< GPR rename allocation
    p_slot_f_dst = 5,
    p750_slot_count = 6,
};

}  // namespace osm::ppc750
