#include "ppc750/ppc750.hpp"

#include <algorithm>
#include <cassert>

#include "common/bits.hpp"
#include "isa/encoding.hpp"
#include "isa/semantics.hpp"

namespace osm::ppc750 {

using core::ident_expr;
using core::k_null_ident;
using isa::op;
using uarch::reg_update_ident;
using uarch::reg_value_ident;

const char* unit_name(unit u) {
    switch (u) {
        case unit::iu1: return "IU1";
        case unit::iu2: return "IU2";
        case unit::fpu: return "FPU";
        case unit::lsu: return "LSU";
        case unit::sru: return "SRU";
        case unit::bpu: return "BPU";
        case unit::count_: break;
    }
    return "?";
}

namespace {
bool is_simple_alu(const isa::decoded_inst& di) {
    const op c = di.code;
    if (isa::is_cti(c) || isa::is_mem(c) || isa::is_mul_div(c) || isa::is_fp(c) ||
        isa::is_system(c) || c == op::invalid) {
        return false;
    }
    return true;
}
}  // namespace

unit p750_model::select_unit(const isa::decoded_inst& di) {
    const op c = di.code;
    if (isa::is_cti(c)) return unit::bpu;
    if (isa::is_mem(c)) return unit::lsu;
    if (isa::is_mul_div(c)) return unit::iu2;
    if (isa::is_fp(c)) return unit::fpu;
    if (isa::is_system(c) || c == op::invalid) return unit::sru;
    return unit::iu1;  // simple ALU prefers IU1, may fall back to IU2
}

p750_model::p750_model(const p750_config& cfg, mem::main_memory& memory)
    : cfg_(cfg),
      mem_(memory),
      dram_t_(cfg.mem_latency),
      bus_(cfg.bus, dram_t_),
      icache_(cfg.icache, bus_),
      dcache_(cfg.dcache, bus_),
      dtlb_(cfg.dtlb),
      dcode_(cfg.decode_cache_entries),
      m_fq_("m_fq", cfg.fetch_queue, cfg.fetch_bw, cfg.dispatch_bw),
      m_cq_("m_cq", cfg.completion_queue, cfg.dispatch_bw, cfg.retire_bw),
      m_gpr_("m_gpr", isa::num_gprs, cfg.gpr_renames, /*reg0_is_zero=*/true),
      m_fpr_("m_fpr", isa::num_fprs, cfg.fpr_renames, /*reg0_is_zero=*/false),
      m_reset_("m_reset"),
      bht_(cfg.bht_entries),
      btic_(cfg.btic_entries),
      graph_("p750"),
      kern_(dir_) {
    for (unsigned u = 0; u < num_units; ++u) {
        const auto uu = static_cast<unit>(u);
        m_unit_[u] = std::make_unique<core::unit_token_manager>(
            std::string("m_") + unit_name(uu));
        m_rs_[u] = std::make_unique<core::unit_token_manager>(
            std::string("m_rs_") + unit_name(uu));
    }
    build_graph();

    dir_.cfg().restart_on_transition = cfg_.director_restart;
    dir_.cfg().deadlock_check = cfg_.deadlock_check;

    ops_.reserve(cfg_.num_osms);
    for (unsigned i = 0; i < cfg_.num_osms; ++i) {
        ops_.push_back(std::make_unique<p750_op>(graph_, "op" + std::to_string(i)));
        dir_.add(*ops_.back());
    }

    // Mis-speculation victims: fetched before the current epoch *and* after
    // the squashing branch in program order.
    m_reset_.arm([this](const core::osm& m) {
        const auto& o = static_cast<const p750_op&>(m);
        return o.fetch_epoch != epoch_ && o.fetch_seq > kill_seq_;
    });

    kern_.on_cycle([this] { on_cycle(); });
}

void p750_model::build_graph() {
    graph_.set_ident_slots(p750_slot_count);

    const auto I = graph_.add_state("I");
    const auto Q = graph_.add_state("Q");  // fetch queue (Fig. 2 state F)
    const auto R = graph_.add_state("R");  // reservation station
    const auto X = graph_.add_state("X");  // executing (Fig. 2 state E)
    const auto C = graph_.add_state("C");  // awaiting completion (Fig. 2 W)
    graph_.set_initial(I);

    const auto slot = ident_expr::from_slot;
    const auto fix = ident_expr::value;

    // Fetch: enter the fetch queue.
    {
        const auto e = graph_.add_edge(I, Q);
        graph_.edge_allocate(e, m_fq_, fix(0));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_fetch(static_cast<p750_op&>(m));
        });
    }

    // Reset edges: squash wrong-path operations wherever they sit.
    for (const auto s : {Q, R, X, C}) {
        const auto e = graph_.add_edge(s, I, /*priority=*/100);
        graph_.edge_inquire(e, m_reset_, fix(0));
        graph_.edge_discard_all(e);
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_squash(static_cast<p750_op&>(m));
        });
    }

    for (unsigned u = 0; u < num_units; ++u) {
        // IU1 outranks IU2 for simple ALU ops that may use either.
        const int bias = (u == static_cast<unsigned>(unit::iu1)) ? 1 : 0;

        // Fig. 2 e1: dispatch directly into the unit — needs the unit, an
        // empty reservation station (in-order issue per unit), every source
        // operand, a completion-queue entry and rename buffers.
        {
            const auto e = graph_.add_edge(Q, X, /*priority=*/20 + bias);
            graph_.edge_release(e, m_fq_, fix(0));
            graph_.edge_allocate(e, m_cq_, fix(0));
            graph_.edge_inquire(e, *m_rs_[u], fix(0));
            graph_.edge_allocate(e, *m_unit_[u], fix(0));
            graph_.edge_inquire(e, m_gpr_, slot(p_slot_g_s1));
            graph_.edge_inquire(e, m_gpr_, slot(p_slot_g_s2));
            graph_.edge_inquire(e, m_fpr_, slot(p_slot_f_s1));
            graph_.edge_inquire(e, m_fpr_, slot(p_slot_f_s2));
            graph_.edge_allocate(e, m_gpr_, slot(p_slot_g_dst));
            graph_.edge_allocate(e, m_fpr_, slot(p_slot_f_dst));
            graph_.edge_set_action(e, [this](core::osm& m) {
                act_issue(static_cast<p750_op&>(m));
            });
            edges_[u].q_to_x = e;
        }
        // Fig. 2 e2: dispatch into the reservation station instead.
        {
            const auto e = graph_.add_edge(Q, R, /*priority=*/10 + bias);
            graph_.edge_release(e, m_fq_, fix(0));
            graph_.edge_allocate(e, m_cq_, fix(0));
            graph_.edge_allocate(e, *m_rs_[u], fix(0));
            graph_.edge_allocate(e, m_gpr_, slot(p_slot_g_dst));
            graph_.edge_allocate(e, m_fpr_, slot(p_slot_f_dst));
            graph_.edge_set_action(e, [this](core::osm& m) {
                act_enter_rs(static_cast<p750_op&>(m));
            });
            edges_[u].q_to_r = e;
        }
        // Fig. 2 e3: issue from the reservation station once the captured
        // operand dependencies have published.
        {
            const auto e = graph_.add_edge(R, X);
            graph_.edge_release(e, *m_rs_[u], fix(0));
            graph_.edge_allocate(e, *m_unit_[u], fix(0));
            graph_.edge_inquire(e, m_gpr_, slot(p_slot_g_s1));
            graph_.edge_inquire(e, m_gpr_, slot(p_slot_g_s2));
            graph_.edge_inquire(e, m_fpr_, slot(p_slot_f_s1));
            graph_.edge_inquire(e, m_fpr_, slot(p_slot_f_s2));
            graph_.edge_set_action(e, [this](core::osm& m) {
                act_issue(static_cast<p750_op&>(m));
            });
            edges_[u].r_to_x = e;
        }
        // Fig. 2 e4: execution complete — free the unit, publish.
        {
            const auto e = graph_.add_edge(X, C);
            graph_.edge_release(e, *m_unit_[u], fix(0));
            graph_.edge_set_action(e, [this](core::osm& m) {
                act_finish(static_cast<p750_op&>(m));
            });
            edges_[u].x_to_c = e;
        }
    }

    // Fig. 2 e5: in-order completion — commit renames, leave the machine.
    {
        const auto e = graph_.add_edge(C, I);
        graph_.edge_release(e, m_cq_, fix(0));
        graph_.edge_release(e, m_gpr_, slot(p_slot_g_dst));
        graph_.edge_release(e, m_fpr_, slot(p_slot_f_dst));
        graph_.edge_set_action(e, [this](core::osm& m) {
            act_retire(static_cast<p750_op&>(m));
        });
    }

    graph_.finalize();
}

void p750_model::load(const isa::program_image& img) {
    img.load_into(mem_);
    fetch_pc_ = img.entry;
    epoch_ = 0;
    next_fetch_seq_ = 1;
    last_fetch_line_ = ~0u;
    redirect_pending_ = false;
    kill_seq_ = ~0ull;
    store_queue_.clear();
    fq_occ_.clear();
    cq_occ_.clear();
    halted_ = false;
    stats_ = {};
    host_.clear();
    dcode_.invalidate_all();
    dcode_.reset_stats();
    kern_.clear_stop();
    m_cq_.unblock_release();
    kills_at_load_ = m_reset_.kills();
    cycles_at_load_ = kern_.cycles();
    for (auto& o : ops_) o->hard_reset();
}

void p750_model::restore_arch(const isa::arch_state& st, const std::string& console) {
    for (unsigned r = 0; r < 32; ++r) {
        m_gpr_.arch_write(r, st.gpr[r]);
        m_fpr_.arch_write(r, st.fpr[r]);
    }
    fetch_pc_ = st.pc;
    halted_ = st.halted;
    host_.seed(console);
}

void p750_model::on_cycle() {
    m_fq_.tick();
    m_cq_.tick();
    for (auto& u : m_unit_) u->tick();
    for (auto& r : m_rs_) r->tick();

    drain_squashed_stores();

    if (redirect_pending_) {
        ++epoch_;
        fetch_pc_ = redirect_target_;
        last_fetch_line_ = ~0u;
        redirect_pending_ = false;
    }

    for (unsigned u = 0; u < num_units; ++u) {
        if (m_unit_[u]->busy()) ++stats_.unit_busy_cycles[u];
    }
    fq_occ_.add(m_fq_.size());
    cq_occ_.add(m_cq_.size());
}

stats::report p750_model::make_report() const {
    stats::report r;
    r.put("model", "name", std::string("p750"));
    r.put("run", "cycles", stats_.cycles);
    r.put("run", "retired", stats_.retired);
    r.put("run", "ipc", stats_.ipc());
    r.put("dispatch", "dispatched", stats_.dispatched);
    r.put("dispatch", "direct_issues", stats_.direct_issues);
    r.put("dispatch", "rs_issues", stats_.rs_issues);
    r.put("branches", "executed", stats_.branches);
    r.put("branches", "mispredicts", stats_.mispredicts);
    r.put("branches", "squashed_ops", stats_.squashed);
    for (unsigned u = 0; u < num_units; ++u) {
        r.put("units", std::string(unit_name(static_cast<unit>(u))) + "_busy_cycles",
              stats_.unit_busy_cycles[u]);
    }
    r.put("queues", "fq_occupancy", fq_occ_);
    r.put("queues", "cq_occupancy", cq_occ_);
    r.put("icache", "hit_ratio", icache_.stats().hit_ratio());
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

std::uint64_t p750_model::run(std::uint64_t max_cycles) {
    std::uint64_t executed = 0;
    while (!halted_ && executed < max_cycles) {
        const std::uint64_t chunk = std::min<std::uint64_t>(max_cycles - executed, 1024);
        executed += kern_.run(chunk);
        if (kern_.stop_requested()) break;
    }
    stats_.cycles = kern_.cycles() - cycles_at_load_;
    stats_.squashed = m_reset_.kills() - kills_at_load_;
    return executed;
}

// ---- edge actions -----------------------------------------------------------

void p750_model::act_fetch(p750_op& o) {
    o.pc = fetch_pc_;
    o.fetch_epoch = epoch_;
    o.fetch_seq = next_fetch_seq_++;
    o.ex = {};
    o.predicted_taken = false;
    o.has_store_entry = false;
    o.issued_from_rs = false;

    // Charge the I-cache once per fetched line; a miss blackouts fetch.
    const std::uint32_t line = o.pc / cfg_.icache.line_bytes;
    if (line != last_fetch_line_) {
        last_fetch_line_ = line;
        const unsigned lat = icache_.access(o.pc, false, 4).latency;
        if (lat > 1) m_fq_.block_alloc_for(lat - 1);
    }

    // The word tag on the decode cache makes stores to fetched code
    // re-decode naturally (self-modifying code needs no invalidation).
    const std::uint32_t word = mem_.read32(o.pc);
    o.di = cfg_.decode_cache ? dcode_.lookup(o.pc, word).di : isa::decode(word);
    const op c = o.di.code;
    o.fu = select_unit(o.di);

    // Initialize transaction identifiers (paper §4): plain register value
    // idents for the dispatch-time check, rename-update idents for the
    // destination.  Unused roles stay null.
    for (std::int32_t s = 0; s < p750_slot_count; ++s) o.set_ident(s, k_null_ident);
    if (isa::uses_rs1(c)) {
        o.set_ident(isa::rs1_is_fpr(c) ? p_slot_f_s1 : p_slot_g_s1,
                    reg_value_ident(o.di.rs1));
    }
    if (isa::uses_rs2(c)) {
        o.set_ident(isa::rs2_is_fpr(c) ? p_slot_f_s2 : p_slot_g_s2,
                    reg_value_ident(o.di.rs2));
    }
    if (isa::writes_rd(c)) {
        o.set_ident(isa::rd_is_fpr(c) ? p_slot_f_dst : p_slot_g_dst,
                    reg_update_ident(o.di.rd));
    }

    // Enable only this operation's unit edges (simple ALU may use IU1/IU2).
    const bool dual = is_simple_alu(o.di);
    for (unsigned u = 0; u < num_units; ++u) {
        const bool en = (u == static_cast<unsigned>(o.fu)) ||
                        (dual && u == static_cast<unsigned>(unit::iu2));
        o.set_edge_enabled(edges_[u].q_to_x, en);
        o.set_edge_enabled(edges_[u].q_to_r, en);
        o.set_edge_enabled(edges_[u].r_to_x, en);
        o.set_edge_enabled(edges_[u].x_to_c, en);
    }

    // Branch prediction: speculative fetch redirection.
    if (isa::is_branch(c)) {
        if (bht_.predict(o.pc)) {
            o.predicted_taken = true;
            o.predicted_target = o.pc + 4 + static_cast<std::uint32_t>(o.di.imm);
            if (!btic_.lookup(o.pc).has_value()) {
                // BTIC miss: one fetch bubble to compute the target.
                m_fq_.block_alloc_for(1);
            }
            fetch_pc_ = o.predicted_target;
            last_fetch_line_ = ~0u;
            return;
        }
    } else if (c == op::jal) {
        // Unconditional with decode-time target: follow it immediately.
        o.predicted_taken = true;
        o.predicted_target = o.pc + 4 + static_cast<std::uint32_t>(o.di.imm);
        fetch_pc_ = o.predicted_target;
        last_fetch_line_ = ~0u;
        return;
    }
    fetch_pc_ = o.pc + 4;
}

void p750_model::act_enter_rs(p750_op& o) {
    ++stats_.dispatched;
    o.issued_from_rs = true;
    // Capture the exact producers we depend on (paper §4: identifiers are
    // (re)initialized so later writers cannot disturb the dependency).
    const op c = o.di.code;
    if (isa::uses_rs1(c)) {
        if (isa::rs1_is_fpr(c)) {
            o.set_ident(p_slot_f_s1, m_fpr_.capture(o.di.rs1, &o));
        } else {
            o.set_ident(p_slot_g_s1, m_gpr_.capture(o.di.rs1, &o));
        }
    }
    if (isa::uses_rs2(c)) {
        if (isa::rs2_is_fpr(c)) {
            o.set_ident(p_slot_f_s2, m_fpr_.capture(o.di.rs2, &o));
        } else {
            o.set_ident(p_slot_g_s2, m_gpr_.capture(o.di.rs2, &o));
        }
    }
}

void p750_model::act_issue(p750_op& o) {
    const op c = o.di.code;
    if (o.issued_from_rs) {
        ++stats_.rs_issues;
    } else {
        ++stats_.dispatched;
        ++stats_.direct_issues;
    }

    std::uint32_t a = 0;
    std::uint32_t b = 0;
    if (isa::uses_rs1(c)) {
        a = isa::rs1_is_fpr(c) ? m_fpr_.read(o.ident(p_slot_f_s1), o.di.rs1, &o)
                               : m_gpr_.read(o.ident(p_slot_g_s1), o.di.rs1, &o);
    }
    if (isa::uses_rs2(c)) {
        b = isa::rs2_is_fpr(c) ? m_fpr_.read(o.ident(p_slot_f_s2), o.di.rs2, &o)
                               : m_gpr_.read(o.ident(p_slot_g_s2), o.di.rs2, &o);
    }
    o.ex = isa::compute(o.di, o.pc, a, b);

    const unsigned uidx = static_cast<unsigned>(o.fu);
    unsigned latency = 1 + isa::extra_exec_cycles(c);

    if (o.fu == unit::lsu && isa::is_mem(c)) {
        unsigned mlat = dtlb_.translate(o.ex.mem_addr);
        const unsigned size = c == op::sb ? 1u : (c == op::sh ? 2u : 4u);
        mlat += dcache_.access(o.ex.mem_addr, isa::is_store(c), size).latency;
        latency = mlat;
        if (isa::is_load(c)) {
            o.ex.value = isa::do_load(c, mem_, o.ex.mem_addr);
        } else {
            // Write through with an undo record (LSU executes memory ops in
            // program order; squashes roll back youngest-first).
            store_entry s;
            s.owner = &o;
            s.addr = o.ex.mem_addr;
            s.size = size;
            s.old_bytes = size == 1   ? mem_.read8(s.addr)
                          : size == 2 ? mem_.read16(s.addr)
                                      : mem_.read32(s.addr);
            isa::do_store(c, mem_, s.addr, o.ex.store_data);
            store_queue_.push_back(s);
            o.has_store_entry = true;
        }
    }

    if (latency > 1) m_unit_[uidx]->hold_for(latency);

    if (o.fu == unit::bpu) resolve_branch(o);
}

void p750_model::resolve_branch(p750_op& o) {
    const op c = o.di.code;
    const std::uint32_t correct_next = o.ex.redirect ? o.ex.next_pc : o.pc + 4;
    const std::uint32_t predicted_next =
        o.predicted_taken ? o.predicted_target : o.pc + 4;

    if (isa::is_branch(c)) {
        ++stats_.branches;
        bht_.update(o.pc, o.ex.redirect);
        if (o.ex.redirect) btic_.insert(o.pc, o.ex.next_pc);
    }
    if (correct_next != predicted_next) {
        ++stats_.mispredicts;
        redirect_pending_ = true;
        redirect_target_ = correct_next;
        kill_seq_ = o.fetch_seq;
    }
}

void p750_model::act_finish(p750_op& o) {
    const op c = o.di.code;
    if (isa::writes_rd(c)) {
        if (isa::rd_is_fpr(c)) {
            m_fpr_.publish(o.di.rd, o, o.ex.value);
        } else {
            m_gpr_.publish(o.di.rd, o, o.ex.value);
        }
    }
}

void p750_model::act_retire(p750_op& o) {
    if (halted_) return;  // nothing younger than the halt may take effect
    ++stats_.retired;
    if (on_retire) on_retire(o);
    const op c = o.di.code;
    if (o.has_store_entry) {
        // The oldest store in flight is ours: its write is now permanent.
        assert(!store_queue_.empty() && store_queue_.front().owner == &o);
        store_queue_.pop_front();
        o.has_store_entry = false;
    }
    if (c == op::syscall_op) {
        isa::arch_state st;
        for (unsigned r = 0; r < isa::num_gprs; ++r) st.gpr[r] = m_gpr_.arch_read(r);
        host_.handle(static_cast<std::uint16_t>(o.di.imm), st);
        if (st.halted) halted_ = true;
    } else if (c == op::halt || c == op::invalid) {
        halted_ = true;
    }
    if (halted_) {
        // Roll back every younger speculative store, refuse any further
        // completion-queue release (nothing younger may commit), and stop.
        while (!store_queue_.empty()) {
            undo_store(store_queue_.back());
            store_queue_.pop_back();
        }
        m_cq_.block_release();
        kern_.request_stop();
    }
}

void p750_model::act_squash(p750_op& o) {
    if (o.has_store_entry) {
        for (auto it = store_queue_.rbegin(); it != store_queue_.rend(); ++it) {
            if (it->owner == &o) {
                it->squashed = true;
                break;
            }
        }
        o.has_store_entry = false;
    }
}

void p750_model::undo_store(const store_entry& s) {
    switch (s.size) {
        case 1: mem_.write8(s.addr, static_cast<std::uint8_t>(s.old_bytes)); break;
        case 2: mem_.write16(s.addr, static_cast<std::uint16_t>(s.old_bytes)); break;
        default: mem_.write32(s.addr, s.old_bytes); break;
    }
}

void p750_model::drain_squashed_stores() {
    // Squash victims form a youngest suffix of the (program-ordered) store
    // queue; roll them back newest-first.
    while (!store_queue_.empty() && store_queue_.back().squashed) {
        undo_store(store_queue_.back());
        store_queue_.pop_back();
    }
}

}  // namespace osm::ppc750
