#include "sarm/sarm.hpp"

#include <cassert>

#include "isa/encoding.hpp"
#include "isa/semantics.hpp"

namespace osm::sarm {

using core::ident_expr;
using core::k_null_ident;
using isa::op;
using uarch::reg_update_ident;
using uarch::reg_value_ident;

sarm_model::sarm_model(const sarm_config& cfg, mem::main_memory& memory,
                       std::string_view osmdl)
    : cfg_(cfg),
      mem_(memory),
      dram_t_(cfg.mem_latency),
      bus_(cfg.bus, dram_t_),
      icache_(cfg.icache, bus_),
      dcache_(cfg.dcache, bus_),
      itlb_(cfg.itlb),
      dtlb_(cfg.dtlb),
      wbuf_(cfg.wbuf),
      dcode_(cfg.decode_cache_entries),
      m_f_("m_f"),
      m_d_("m_d"),
      m_e_("m_e"),
      m_b_("m_b"),
      m_w_("m_w"),
      m_mul_("m_mul"),
      m_r_("m_r", isa::num_gprs, /*reg0_is_zero=*/true, cfg.forwarding),
      m_fr_("m_fr", isa::num_fprs, /*reg0_is_zero=*/false, cfg.forwarding),
      m_reset_("m_reset"),
      graph_("sarm"),
      kern_(dir_) {
    if (osmdl.empty()) {
        build_graph();
    } else {
        elaborate_graph(osmdl);
    }

    dir_.cfg().restart_on_transition = cfg_.director_restart;
    dir_.cfg().deadlock_check = cfg_.deadlock_check;

    ops_.reserve(cfg_.num_osms);
    for (unsigned i = 0; i < cfg_.num_osms; ++i) {
        ops_.push_back(std::make_unique<sarm_op>(graph(), "op" + std::to_string(i)));
        dir_.add(*ops_.back());
    }

    // Control hazards: wrong-path operations are those fetched in an older
    // epoch.  The manager stays armed forever; the predicate keeps it
    // harmless for current-epoch operations.
    m_reset_.arm([this](const core::osm& m) {
        return static_cast<const sarm_op&>(m).epoch != epoch_;
    });

    kern_.on_cycle([this] { on_cycle(); });
}

void sarm_model::build_graph() {
    graph_.set_ident_slots(sarm_slot_count);

    const auto I = graph_.add_state("I");
    const auto F = graph_.add_state("F");
    const auto D = graph_.add_state("D");
    const auto E = graph_.add_state("E");
    const auto B = graph_.add_state("B");
    const auto W = graph_.add_state("W");
    graph_.set_initial(I);

    const auto slot = ident_expr::from_slot;
    const auto fix = ident_expr::value;

    // e0: I -> F  (paper Fig. 6): claim the fetch stage; fetch + decode.
    {
        const auto e = graph_.add_edge(I, F);
        graph_.edge_allocate(e, m_f_, fix(0));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_fetch(static_cast<sarm_op&>(m));
        });
    }
    // Reset edges (higher priority than the normal path, paper §4).
    {
        const auto e = graph_.add_edge(F, I, /*priority=*/10);
        graph_.edge_inquire(e, m_reset_, fix(0));
        graph_.edge_discard_all(e);
    }
    {
        const auto e = graph_.add_edge(D, I, /*priority=*/10);
        graph_.edge_inquire(e, m_reset_, fix(0));
        graph_.edge_discard_all(e);
    }
    // e1: F -> D: hand the fetch stage to the next op, claim decode.
    {
        const auto e = graph_.add_edge(F, D);
        graph_.edge_release(e, m_f_, fix(0));
        graph_.edge_allocate(e, m_d_, fix(0));
    }
    // e2: D -> E: source operands must be available (value tokens), the
    // destination write port is claimed (update token), the execute stage
    // and — for multiplies — the multiplier are claimed.
    {
        const auto e = graph_.add_edge(D, E);
        graph_.edge_release(e, m_d_, fix(0));
        graph_.edge_allocate(e, m_e_, fix(0));
        graph_.edge_inquire(e, m_r_, slot(slot_gpr_s1));
        graph_.edge_inquire(e, m_r_, slot(slot_gpr_s2));
        graph_.edge_inquire(e, m_fr_, slot(slot_fpr_s1));
        graph_.edge_inquire(e, m_fr_, slot(slot_fpr_s2));
        graph_.edge_allocate(e, m_r_, slot(slot_gpr_dst));
        graph_.edge_allocate(e, m_fr_, slot(slot_fpr_dst));
        graph_.edge_allocate(e, m_mul_, slot(slot_mul));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_execute(static_cast<sarm_op&>(m));
        });
    }
    // e3: E -> B: memory access happens on entering the buffer stage.
    {
        const auto e = graph_.add_edge(E, B);
        graph_.edge_release(e, m_e_, fix(0));
        graph_.edge_release(e, m_mul_, slot(slot_mul));
        graph_.edge_allocate(e, m_b_, fix(0));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_mem(static_cast<sarm_op&>(m));
        });
    }
    // e4: B -> W: loads forward their data from here.
    {
        const auto e = graph_.add_edge(B, W);
        graph_.edge_release(e, m_b_, fix(0));
        graph_.edge_allocate(e, m_w_, fix(0));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_buffer_exit(static_cast<sarm_op&>(m));
        });
    }
    // e5: W -> I: retire — commit register updates, return to the pool.
    {
        const auto e = graph_.add_edge(W, I);
        graph_.edge_release(e, m_w_, fix(0));
        graph_.edge_release(e, m_r_, slot(slot_gpr_dst));
        graph_.edge_release(e, m_fr_, slot(slot_fpr_dst));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_retire(static_cast<sarm_op&>(m));
        });
    }

    graph_.finalize();
}

adl::manager_registry sarm_model::managers() {
    return {{"m_f", &m_f_}, {"m_d", &m_d_},   {"m_e", &m_e_},
            {"m_b", &m_b_}, {"m_w", &m_w_},   {"m_mul", &m_mul_},
            {"m_r", &m_r_}, {"m_fr", &m_fr_}, {"m_reset", &m_reset_}};
}

void sarm_model::elaborate_graph(std::string_view osmdl) {
    const adl::action_registry actions{
        {"fetch", [this](core::osm& m) { act_fetch(static_cast<sarm_op&>(m)); }},
        {"execute", [this](core::osm& m) { act_execute(static_cast<sarm_op&>(m)); }},
        {"mem", [this](core::osm& m) { act_mem(static_cast<sarm_op&>(m)); }},
        {"buffer_exit", [this](core::osm& m) { act_buffer_exit(static_cast<sarm_op&>(m)); }},
        {"retire", [this](core::osm& m) { act_retire(static_cast<sarm_op&>(m)); }},
    };
    machine_ = adl::parse_machine(osmdl, actions, /*allow_missing_actions=*/false, managers());
}

void sarm_model::load(const isa::program_image& img) {
    img.load_into(mem_);
    fetch_pc_ = img.entry;
    epoch_ = 0;
    redirect_pending_ = false;
    halted_ = false;
    stats_ = {};
    host_.clear();
    wbuf_.clear();
    wbuf_.reset_stats();
    dcode_.invalidate_all();
    dcode_.reset_stats();
    kern_.clear_stop();
    kills_at_load_ = m_reset_.kills();
    cycles_at_load_ = kern_.cycles();
    for (auto& o : ops_) o->hard_reset();
}

void sarm_model::restore_arch(const isa::arch_state& st, const std::string& console) {
    for (unsigned r = 0; r < 32; ++r) {
        m_r_.arch_write(r, st.gpr[r]);
        m_fr_.arch_write(r, st.fpr[r]);
    }
    fetch_pc_ = st.pc;
    halted_ = st.halted;
    host_.seed(console);
}

void sarm_model::on_cycle() {
    if (cfg_.write_buffer) wbuf_.tick();
    if (m_f_.hold_remaining() > 0) ++stats_.fetch_hold_cycles;
    if (m_b_.hold_remaining() > 0) ++stats_.mem_hold_cycles;
    if (m_e_.hold_remaining() > 0) ++stats_.exec_hold_cycles;
    m_f_.tick();
    m_d_.tick();
    m_e_.tick();
    m_b_.tick();
    m_w_.tick();
    m_mul_.tick();
    if (redirect_pending_) {
        // The redirect becomes architecturally visible at the next clock
        // edge: fetch restarts from the target and every operation fetched
        // in the old epoch becomes a reset victim.
        ++epoch_;
        fetch_pc_ = redirect_target_;
        redirect_pending_ = false;
        ++stats_.redirects;
    }
}

std::uint64_t sarm_model::run(std::uint64_t max_cycles) {
    std::uint64_t executed = 0;
    while (!halted_ && executed < max_cycles) {
        const std::uint64_t chunk = std::min<std::uint64_t>(max_cycles - executed, 1024);
        executed += kern_.run(chunk);
        if (kern_.stop_requested()) break;
    }
    stats_.cycles = kern_.cycles() - cycles_at_load_;
    stats_.kills = m_reset_.kills() - kills_at_load_;
    return executed;
}

stats::report sarm_model::make_report() const {
    stats::report r;
    r.put("model", "name", std::string(machine_ ? "adl" : "sarm"));
    r.put("run", "cycles", stats_.cycles);
    r.put("run", "retired", stats_.retired);
    r.put("run", "ipc", stats_.ipc());
    r.put("branches", "executed", stats_.branches);
    r.put("branches", "taken", stats_.taken_branches);
    r.put("branches", "redirects", stats_.redirects);
    r.put("branches", "squashed_ops", stats_.kills);
    r.put("stalls", "fetch_hold_cycles", stats_.fetch_hold_cycles);
    r.put("stalls", "mem_hold_cycles", stats_.mem_hold_cycles);
    r.put("stalls", "exec_hold_cycles", stats_.exec_hold_cycles);
    r.put("icache", "accesses", icache_.stats().accesses);
    r.put("icache", "hit_ratio", icache_.stats().hit_ratio());
    r.put("dcache", "accesses", dcache_.stats().accesses);
    r.put("dcache", "hit_ratio", dcache_.stats().hit_ratio());
    r.put("decode_cache", "enabled", static_cast<std::uint64_t>(cfg_.decode_cache ? 1 : 0));
    r.put("decode_cache", "hits", dcode_.stats().hits);
    r.put("decode_cache", "misses", dcode_.stats().misses);
    r.put("decode_cache", "evictions", dcode_.stats().evictions);
    r.put("decode_cache", "smc_redecodes", dcode_.stats().smc_redecodes);
    r.put("decode_cache", "hit_ratio", dcode_.stats().hit_ratio());
    r.put("director", "control_steps", dir_.stats().control_steps);
    r.put("director", "transitions", dir_.stats().transitions);
    r.put("director", "conditions_evaluated", dir_.stats().conditions_evaluated);
    r.put("director", "primitives_evaluated", dir_.stats().primitives_evaluated);
    return r;
}

// ---- edge actions -----------------------------------------------------------

void sarm_model::act_fetch(sarm_op& o) {
    o.pc = fetch_pc_;
    o.epoch = epoch_;
    fetch_pc_ += 4;

    // Timed fetch: ITLB + I-cache; a miss refuses the fetch-token release
    // until the line arrives (paper §4 "Variable latency").
    unsigned latency = itlb_.translate(o.pc);
    latency += icache_.access(o.pc, false, 4).latency;
    if (latency > 1) m_f_.hold_for(latency);

    // Decode and initialize all transaction identifiers (paper §4).  The
    // word read feeds the decode cache's word tag, so stores to fetched
    // code re-decode naturally (self-modifying code needs no invalidation).
    const std::uint32_t word = mem_.read32(o.pc);
    o.di = cfg_.decode_cache ? dcode_.lookup(o.pc, word).di : isa::decode(word);
    o.ex = {};

    for (std::int32_t s = 0; s < sarm_slot_count; ++s) o.set_ident(s, k_null_ident);

    const op c = o.di.code;
    if (isa::uses_rs1(c)) {
        o.set_ident(isa::rs1_is_fpr(c) ? slot_fpr_s1 : slot_gpr_s1,
                    reg_value_ident(o.di.rs1));
    }
    if (isa::uses_rs2(c)) {
        o.set_ident(isa::rs2_is_fpr(c) ? slot_fpr_s2 : slot_gpr_s2,
                    reg_value_ident(o.di.rs2));
    }
    if (c == op::syscall_op) {
        // Syscalls read a0..a1; wait for pending writers of a0.
        o.set_ident(slot_gpr_s1, reg_value_ident(4));
    }
    if (isa::writes_rd(c)) {
        o.set_ident(isa::rd_is_fpr(c) ? slot_fpr_dst : slot_gpr_dst,
                    reg_update_ident(o.di.rd));
    }
    if (isa::is_mul_div(c)) o.set_ident(slot_mul, 0);
}

void sarm_model::act_execute(sarm_op& o) {
    const op c = o.di.code;

    // Multi-cycle execute: occupy E (and the multiplier) for the extra
    // cycles by refusing the stage-token release.
    unsigned extra = isa::extra_exec_cycles(c);
    if (isa::is_mul_div(c) && extra > 0) extra += cfg_.mul_extra;
    if (extra > 0) {
        m_e_.hold_for(extra + 1);
        if (isa::is_mul_div(c)) m_mul_.hold_for(extra + 1);
    }

    if (c == op::halt || c == op::invalid) {
        // Serialize: refetch the halt itself so no younger operation can
        // reach the memory stage with side effects.
        redirect_pending_ = true;
        redirect_target_ = o.pc;
        return;
    }
    if (c == op::syscall_op) {
        // Serializing instruction: flush and refetch the successor.
        redirect_pending_ = true;
        redirect_target_ = o.pc + 4;
        return;
    }

    const std::uint32_t a = isa::rs1_is_fpr(c) ? m_fr_.read(o.di.rs1) : m_r_.read(o.di.rs1);
    const std::uint32_t b = isa::rs2_is_fpr(c) ? m_fr_.read(o.di.rs2) : m_r_.read(o.di.rs2);
    o.ex = isa::compute(o.di, o.pc, a, b);

    // Non-load results are known at the end of E: publish for forwarding.
    if (isa::writes_rd(c) && !isa::is_load(c)) {
        if (isa::rd_is_fpr(c)) {
            m_fr_.publish(o.di.rd, o.ex.value);
        } else {
            m_r_.publish(o.di.rd, o.ex.value);
        }
    }

    if (isa::is_branch(c)) {
        ++stats_.branches;
        if (o.ex.redirect) ++stats_.taken_branches;
    }
    if (o.ex.redirect) {
        // Taken branch / jump: redirect fetch at the next clock edge.
        redirect_pending_ = true;
        redirect_target_ = o.ex.next_pc;
    }
}

void sarm_model::act_mem(sarm_op& o) {
    const op c = o.di.code;
    if (!isa::is_mem(c)) return;

    unsigned latency = dtlb_.translate(o.ex.mem_addr);
    const auto res = dcache_.access(o.ex.mem_addr, isa::is_store(c),
                                    c == op::sb ? 1u : (c == op::sh ? 2u : 4u));
    if (cfg_.write_buffer && isa::is_store(c)) {
        // The write buffer absorbs the store: the pipeline pays only the
        // TLB and a possible buffer-full stall; the (miss) traffic drains
        // in the background.
        latency += 1 + wbuf_.push_store();
    } else {
        latency += res.latency;
    }
    if (latency > 1) m_b_.hold_for(latency);

    if (isa::is_load(c)) {
        o.ex.value = isa::do_load(c, mem_, o.ex.mem_addr);
    } else {
        isa::do_store(c, mem_, o.ex.mem_addr, o.ex.store_data);
    }
}

void sarm_model::act_buffer_exit(sarm_op& o) {
    // Load data is available once the buffer stage completes.
    if (isa::is_load(o.di.code)) {
        if (isa::rd_is_fpr(o.di.code)) {
            m_fr_.publish(o.di.rd, o.ex.value);
        } else {
            m_r_.publish(o.di.rd, o.ex.value);
        }
    }
}

void sarm_model::act_retire(sarm_op& o) {
    ++stats_.retired;
    const op c = o.di.code;
    if (c == op::syscall_op) {
        isa::arch_state st;
        for (unsigned r = 0; r < isa::num_gprs; ++r) st.gpr[r] = m_r_.arch_read(r);
        host_.handle(static_cast<std::uint16_t>(o.di.imm), st);
        if (st.halted) {
            halted_ = true;
            kern_.request_stop();
        }
    } else if (c == op::halt || c == op::invalid) {
        halted_ = true;
        kern_.request_stop();
    }
}

}  // namespace osm::sarm
