#include "adl/adl_sarm.hpp"

#include <cassert>

#include "isa/encoding.hpp"
#include "isa/semantics.hpp"

namespace osm::adl {

using isa::op;
using sarm::sarm_slot;
using uarch::reg_update_ident;
using uarch::reg_value_ident;

std::string sarm_osmdl() {
    return R"(
; SARM, paper Fig. 6: F D E B W plus reset edges and the multiplier.
machine sarm_adl
slots 7                              ; gpr_s1 gpr_s2 fpr_s1 fpr_s2 gpr_dst fpr_dst mul

manager unit    m_f
manager unit    m_d
manager unit    m_e
manager unit    m_b
manager unit    m_w
manager unit    m_mul
manager regfile m_r  regs 32 zero forwarding
manager regfile m_fr regs 32 forwarding
manager reset   m_reset

state I initial
state F
state D
state E
state B
state W

edge I -> F { allocate m_f 0  action fetch }

edge F -> I priority 10 { inquire m_reset 0  discard_all }
edge D -> I priority 10 { inquire m_reset 0  discard_all }

edge F -> D { release m_f 0  allocate m_d 0 }

edge D -> E {
  release m_d 0
  allocate m_e 0
  inquire m_r  slot 0
  inquire m_r  slot 1
  inquire m_fr slot 2
  inquire m_fr slot 3
  allocate m_r  slot 4
  allocate m_fr slot 5
  allocate m_mul slot 6
  action execute
}

edge E -> B {
  release m_e 0
  release m_mul slot 6
  allocate m_b 0
  action mem
}

edge B -> W { release m_b 0  allocate m_w 0  action buffer_exit }

edge W -> I {
  release m_w 0
  release m_r  slot 4
  release m_fr slot 5
  action retire
}
)";
}

/// Operation context: identical payload to sarm::sarm_op.
class adl_sarm_model::op_ctx final : public core::osm {
public:
    using core::osm::osm;
    isa::decoded_inst di{};
    std::uint32_t pc = 0;
    std::uint32_t epoch = 0;
    isa::exec_out ex{};
};

adl_sarm_model::adl_sarm_model(const sarm::sarm_config& cfg, mem::main_memory& memory)
    : cfg_(cfg),
      mem_(memory),
      dram_t_(cfg.mem_latency),
      bus_(cfg.bus, dram_t_),
      icache_(cfg.icache, bus_),
      dcache_(cfg.dcache, bus_),
      itlb_(cfg.itlb),
      dtlb_(cfg.dtlb),
      dcode_(cfg.decode_cache_entries),
      kern_(dir_) {
    action_registry reg;
    reg["fetch"] = [this](core::osm& m) { act_fetch(m); };
    reg["execute"] = [this](core::osm& m) { act_execute(m); };
    reg["mem"] = [this](core::osm& m) { act_mem(m); };
    reg["buffer_exit"] = [this](core::osm& m) { act_buffer_exit(m); };
    reg["retire"] = [this](core::osm& m) { act_retire(m); };
    machine_ = parse_machine(sarm_osmdl(), reg);

    m_f_ = static_cast<core::unit_token_manager*>(machine_->find_manager("m_f"));
    m_d_ = static_cast<core::unit_token_manager*>(machine_->find_manager("m_d"));
    m_e_ = static_cast<core::unit_token_manager*>(machine_->find_manager("m_e"));
    m_b_ = static_cast<core::unit_token_manager*>(machine_->find_manager("m_b"));
    m_w_ = static_cast<core::unit_token_manager*>(machine_->find_manager("m_w"));
    m_mul_ = static_cast<core::unit_token_manager*>(machine_->find_manager("m_mul"));
    m_r_ = static_cast<uarch::register_file_manager*>(machine_->find_manager("m_r"));
    m_fr_ = static_cast<uarch::register_file_manager*>(machine_->find_manager("m_fr"));
    m_reset_ = static_cast<uarch::reset_manager*>(machine_->find_manager("m_reset"));
    m_r_->set_forwarding(cfg_.forwarding);
    m_fr_->set_forwarding(cfg_.forwarding);

    dir_.cfg().restart_on_transition = cfg_.director_restart;
    for (unsigned i = 0; i < cfg_.num_osms; ++i) {
        ops_.push_back(std::make_unique<op_ctx>(machine_->graph, "op" + std::to_string(i)));
        dir_.add(*ops_.back());
    }
    m_reset_->arm([this](const core::osm& m) {
        return static_cast<const op_ctx&>(m).epoch != epoch_;
    });
    kern_.on_cycle([this] { on_cycle(); });
}

void adl_sarm_model::load(const isa::program_image& img) {
    img.load_into(mem_);
    fetch_pc_ = img.entry;
    epoch_ = 0;
    redirect_pending_ = false;
    halted_ = false;
    stats_ = {};
    host_.clear();
    dcode_.invalidate_all();
    dcode_.reset_stats();
    kern_.clear_stop();
    for (auto& o : ops_) o->hard_reset();
}

void adl_sarm_model::restore_arch(const isa::arch_state& st, const std::string& console) {
    for (unsigned r = 0; r < 32; ++r) {
        m_r_->arch_write(r, st.gpr[r]);
        m_fr_->arch_write(r, st.fpr[r]);
    }
    fetch_pc_ = st.pc;
    halted_ = st.halted;
    host_.seed(console);
}

void adl_sarm_model::on_cycle() {
    m_f_->tick();
    m_d_->tick();
    m_e_->tick();
    m_b_->tick();
    m_w_->tick();
    m_mul_->tick();
    if (redirect_pending_) {
        ++epoch_;
        fetch_pc_ = redirect_target_;
        redirect_pending_ = false;
        ++stats_.redirects;
    }
}

std::uint64_t adl_sarm_model::run(std::uint64_t max_cycles) {
    std::uint64_t executed = 0;
    while (!halted_ && executed < max_cycles) {
        const std::uint64_t chunk = std::min<std::uint64_t>(max_cycles - executed, 1024);
        executed += kern_.run(chunk);
        if (kern_.stop_requested()) break;
    }
    stats_.cycles = kern_.cycles();
    stats_.kills = m_reset_->kills();
    return executed;
}

stats::report adl_sarm_model::make_report() const {
    stats::report r;
    r.put("model", "name", std::string("adl"));
    r.put("run", "cycles", stats_.cycles);
    r.put("run", "retired", stats_.retired);
    r.put("run", "ipc", stats_.ipc());
    r.put("branches", "executed", stats_.branches);
    r.put("branches", "taken", stats_.taken_branches);
    r.put("branches", "redirects", stats_.redirects);
    r.put("branches", "squashed_ops", stats_.kills);
    r.put("icache", "accesses", icache_.stats().accesses);
    r.put("icache", "hit_ratio", icache_.stats().hit_ratio());
    r.put("dcache", "accesses", dcache_.stats().accesses);
    r.put("dcache", "hit_ratio", dcache_.stats().hit_ratio());
    r.put("decode_cache", "enabled", static_cast<std::uint64_t>(cfg_.decode_cache ? 1 : 0));
    r.put("decode_cache", "hits", dcode_.stats().hits);
    r.put("decode_cache", "misses", dcode_.stats().misses);
    r.put("decode_cache", "hit_ratio", dcode_.stats().hit_ratio());
    r.put("director", "control_steps", dir_.stats().control_steps);
    r.put("director", "transitions", dir_.stats().transitions);
    r.put("director", "conditions_evaluated", dir_.stats().conditions_evaluated);
    r.put("director", "primitives_evaluated", dir_.stats().primitives_evaluated);
    return r;
}

// ---- actions (the code an ADL generator would leave to the user) ----------

void adl_sarm_model::act_fetch(core::osm& m) {
    auto& o = static_cast<op_ctx&>(m);
    o.pc = fetch_pc_;
    o.epoch = epoch_;
    fetch_pc_ += 4;

    unsigned latency = itlb_.translate(o.pc);
    latency += icache_.access(o.pc, false, 4).latency;
    if (latency > 1) m_f_->hold_for(latency);

    const std::uint32_t word = mem_.read32(o.pc);
    o.di = cfg_.decode_cache ? dcode_.lookup(o.pc, word).di : isa::decode(word);
    o.ex = {};
    for (std::int32_t s = 0; s < sarm::sarm_slot_count; ++s) {
        o.set_ident(s, core::k_null_ident);
    }
    const op c = o.di.code;
    if (isa::uses_rs1(c)) {
        o.set_ident(isa::rs1_is_fpr(c) ? sarm::slot_fpr_s1 : sarm::slot_gpr_s1,
                    reg_value_ident(o.di.rs1));
    }
    if (isa::uses_rs2(c)) {
        o.set_ident(isa::rs2_is_fpr(c) ? sarm::slot_fpr_s2 : sarm::slot_gpr_s2,
                    reg_value_ident(o.di.rs2));
    }
    if (c == op::syscall_op) o.set_ident(sarm::slot_gpr_s1, reg_value_ident(4));
    if (isa::writes_rd(c)) {
        o.set_ident(isa::rd_is_fpr(c) ? sarm::slot_fpr_dst : sarm::slot_gpr_dst,
                    reg_update_ident(o.di.rd));
    }
    if (isa::is_mul_div(c)) o.set_ident(sarm::slot_mul, 0);
}

void adl_sarm_model::act_execute(core::osm& m) {
    auto& o = static_cast<op_ctx&>(m);
    const op c = o.di.code;
    unsigned extra = isa::extra_exec_cycles(c);
    if (isa::is_mul_div(c) && extra > 0) extra += cfg_.mul_extra;
    if (extra > 0) {
        m_e_->hold_for(extra + 1);
        if (isa::is_mul_div(c)) m_mul_->hold_for(extra + 1);
    }
    if (c == op::halt || c == op::invalid) {
        redirect_pending_ = true;
        redirect_target_ = o.pc;
        return;
    }
    if (c == op::syscall_op) {
        redirect_pending_ = true;
        redirect_target_ = o.pc + 4;
        return;
    }
    const std::uint32_t a = isa::rs1_is_fpr(c) ? m_fr_->read(o.di.rs1) : m_r_->read(o.di.rs1);
    const std::uint32_t b = isa::rs2_is_fpr(c) ? m_fr_->read(o.di.rs2) : m_r_->read(o.di.rs2);
    o.ex = isa::compute(o.di, o.pc, a, b);
    if (isa::writes_rd(c) && !isa::is_load(c)) {
        (isa::rd_is_fpr(c) ? m_fr_ : m_r_)->publish(o.di.rd, o.ex.value);
    }
    if (isa::is_branch(c)) {
        ++stats_.branches;
        if (o.ex.redirect) ++stats_.taken_branches;
    }
    if (o.ex.redirect) {
        redirect_pending_ = true;
        redirect_target_ = o.ex.next_pc;
    }
}

void adl_sarm_model::act_mem(core::osm& m) {
    auto& o = static_cast<op_ctx&>(m);
    const op c = o.di.code;
    if (!isa::is_mem(c)) return;
    unsigned latency = dtlb_.translate(o.ex.mem_addr);
    latency += dcache_.access(o.ex.mem_addr, isa::is_store(c),
                              c == op::sb ? 1u : (c == op::sh ? 2u : 4u))
                   .latency;
    if (latency > 1) m_b_->hold_for(latency);
    if (isa::is_load(c)) {
        o.ex.value = isa::do_load(c, mem_, o.ex.mem_addr);
    } else {
        isa::do_store(c, mem_, o.ex.mem_addr, o.ex.store_data);
    }
}

void adl_sarm_model::act_buffer_exit(core::osm& m) {
    auto& o = static_cast<op_ctx&>(m);
    if (isa::is_load(o.di.code)) {
        (isa::rd_is_fpr(o.di.code) ? m_fr_ : m_r_)->publish(o.di.rd, o.ex.value);
    }
}

void adl_sarm_model::act_retire(core::osm& m) {
    auto& o = static_cast<op_ctx&>(m);
    ++stats_.retired;
    const op c = o.di.code;
    if (c == op::syscall_op) {
        isa::arch_state st;
        for (unsigned r = 0; r < isa::num_gprs; ++r) st.gpr[r] = m_r_->arch_read(r);
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

}  // namespace osm::adl
