#include "smt/smt.hpp"

#include "isa/encoding.hpp"
#include "isa/semantics.hpp"

namespace osm::smt {

using core::ident_expr;
using core::k_null_ident;
using isa::op;

namespace {
core::ident_t tagged_value(unsigned thread, unsigned reg) {
    return uarch::reg_value_ident(thread * 32 + reg);
}
core::ident_t tagged_update(unsigned thread, unsigned reg) {
    return uarch::reg_update_ident(thread * 32 + reg);
}
bool is_exit_syscall(const isa::decoded_inst& di) {
    return di.code == op::syscall_op &&
           static_cast<std::uint16_t>(di.imm) ==
               static_cast<std::uint16_t>(isa::syscall_code::exit);
}
}  // namespace

smt_model::smt_model(const smt_config& cfg, mem::main_memory& memory)
    : cfg_(cfg),
      mem_(memory),
      dcode_(cfg.decode_cache_entries),
      m_f_("m_f"),
      m_x_("m_x"),
      m_w_("m_w"),
      m_r_("m_r", cfg.threads * 32, /*reg0_is_zero=*/false, cfg.forwarding),
      m_reset_("m_reset"),
      graph_("smt"),
      kern_(dir_) {
    build();
    for (unsigned i = 0; i < cfg_.num_osms; ++i) {
        ops_.push_back(std::make_unique<smt_op>(graph_, "op" + std::to_string(i)));
        dir_.add(*ops_.back());
    }
    // Control hazards are per thread: victims are stale-epoch operations of
    // the redirecting thread only.
    m_reset_.arm([this](const core::osm& m) {
        const auto& o = static_cast<const smt_op&>(m);
        return !o.past_end && o.epoch != epoch_[o.thread];
    });
    if (cfg_.priority_thread >= 0) {
        // Thread tags contribute to ranking: the foreground thread's
        // operations always outrank background ones of the same stage age.
        const auto fg = static_cast<unsigned>(cfg_.priority_thread);
        dir_.set_rank([fg](const core::osm& m) {
            const auto& o = static_cast<const smt_op&>(m);
            const std::int64_t boost = (!o.at_initial() && o.thread == fg) ? 0 : 1;
            return (boost << 50) + static_cast<std::int64_t>(m.age());
        });
    }
}

void smt_model::build() {
    graph_.set_ident_slots(3);
    const auto I = graph_.add_state("I");
    const auto F = graph_.add_state("F");
    const auto X = graph_.add_state("X");
    const auto W = graph_.add_state("W");

    auto e = graph_.add_edge(I, F);
    graph_.edge_allocate(e, m_f_, ident_expr::value(0));
    graph_.edge_set_action(e, [this](core::osm& m) { act_fetch(static_cast<smt_op&>(m)); });

    e = graph_.add_edge(F, I, /*priority=*/10);
    graph_.edge_inquire(e, m_reset_, ident_expr::value(0));
    graph_.edge_discard_all(e);

    e = graph_.add_edge(F, X);
    graph_.edge_release(e, m_f_, ident_expr::value(0));
    graph_.edge_allocate(e, m_x_, ident_expr::value(0));
    graph_.edge_inquire(e, m_r_, ident_expr::from_slot(0));
    graph_.edge_inquire(e, m_r_, ident_expr::from_slot(1));
    graph_.edge_allocate(e, m_r_, ident_expr::from_slot(2));
    graph_.edge_set_action(e, [this](core::osm& m) { act_execute(static_cast<smt_op&>(m)); });

    e = graph_.add_edge(X, W);
    graph_.edge_release(e, m_x_, ident_expr::value(0));
    graph_.edge_allocate(e, m_w_, ident_expr::value(0));

    e = graph_.add_edge(W, I);
    graph_.edge_release(e, m_w_, ident_expr::value(0));
    graph_.edge_release(e, m_r_, ident_expr::from_slot(2));
    graph_.edge_set_action(e, [this](core::osm& m) { act_retire(static_cast<smt_op&>(m)); });

    graph_.finalize();
}

void smt_model::load(unsigned t, const isa::program_image& img) {
    img.load_into(mem_);
    pc_.at(t) = img.entry;
    loaded_[t] = true;
    done_[t] = false;
    dcode_.invalidate_all();
    dcode_.reset_stats();
}

void smt_model::restore_arch(const isa::arch_state& st, const std::string& console) {
    for (unsigned r = 0; r < 32; ++r) m_r_.arch_write(r, st.gpr[r]);
    pc_[0] = st.pc;
    loaded_[0] = true;
    done_[0] = st.halted;
    if (st.halted) halts_retired_ = 1;  // the exit retired before the save
    host_.seed(console);
}

bool smt_model::all_done() const {
    for (unsigned t = 0; t < cfg_.threads; ++t) {
        if (loaded_[t] && !done_[t]) return false;
    }
    return true;
}

bool smt_model::drained() const {
    unsigned expected = 0;
    for (unsigned t = 0; t < cfg_.threads; ++t) {
        if (loaded_[t]) ++expected;
    }
    return halts_retired_ >= expected;
}

unsigned smt_model::in_flight(unsigned t) const {
    unsigned n = 0;
    for (const auto& o : ops_) {
        if (!o->at_initial() && o->thread == t && !o->past_end) ++n;
    }
    return n;
}

unsigned smt_model::pick_thread() {
    if (cfg_.policy == fetch_policy::icount) {
        unsigned best = ~0u;
        unsigned best_count = ~0u;
        for (unsigned t = 0; t < cfg_.threads; ++t) {
            if (!loaded_[t] || done_[t]) continue;
            const unsigned c = in_flight(t);
            if (c < best_count) {
                best = t;
                best_count = c;
            }
        }
        if (best != ~0u) return best;
    } else {
        for (unsigned step = 0; step < cfg_.threads; ++step) {
            const unsigned t = (rr_next_ + step) % cfg_.threads;
            if (loaded_[t] && !done_[t]) {
                rr_next_ = (t + 1) % cfg_.threads;
                return t;
            }
        }
    }
    // All threads done: keep feeding thread 0's stream as harmless
    // past-end fetches until the halts drain.
    return 0;
}

void smt_model::act_fetch(smt_op& o) {
    const unsigned t = pick_thread();
    o.thread = t;
    o.past_end = done_[t] || !loaded_[t];
    o.epoch = epoch_[t];
    o.pc = pc_[t];
    const std::uint32_t word = mem_.read32(o.pc);
    o.di = cfg_.decode_cache ? dcode_.lookup(o.pc, word).di : isa::decode(word);
    if (!o.past_end) ++stats_.fetched[t];
    // An exit syscall's code is an immediate, so it terminates the thread's
    // fetch stream just like halt: no younger operation may enter the
    // pipeline behind it (the ISS never executes past an exit).  A
    // wrong-path exit parks the thread; the redirect revives it.
    if (o.di.code == op::halt || o.di.code == op::invalid || is_exit_syscall(o.di)) {
        done_[t] = true;
    } else {
        pc_[t] += 4;  // redirects happen at execute
    }

    const op c = o.di.code;
    o.set_ident(0, isa::uses_rs1(c) ? tagged_value(t, o.di.rs1) : k_null_ident);
    o.set_ident(1, isa::uses_rs2(c) ? tagged_value(t, o.di.rs2) : k_null_ident);
    // rd == 0 gets no update token: the shared register-file manager cannot
    // pin r0 per thread (ids are thread-tagged), so x0 writes are dropped
    // here instead.
    o.set_ident(2, isa::writes_rd(c) && !isa::rd_is_fpr(c) && o.di.rd != 0
                       ? tagged_update(t, o.di.rd)
                       : k_null_ident);
}

void smt_model::act_execute(smt_op& o) {
    const op c = o.di.code;
    if (isa::is_system(c) || c == op::invalid || o.past_end) return;
    const std::uint32_t a = m_r_.read(o.thread * 32 + o.di.rs1);
    const std::uint32_t b = m_r_.read(o.thread * 32 + o.di.rs2);
    auto out = isa::compute(o.di, o.pc, a, b);
    if (isa::is_load(c)) {
        out.value = isa::do_load(c, mem_, out.mem_addr);
    } else if (isa::is_store(c)) {
        isa::do_store(c, mem_, out.mem_addr, out.store_data);
    }
    if (isa::writes_rd(c) && !isa::rd_is_fpr(c) && o.di.rd != 0) {
        m_r_.publish(o.thread * 32 + o.di.rd, out.value);
    }
    if (out.redirect) {
        // Per-thread control hazard: only this thread's wrong path dies.
        pc_[o.thread] = out.next_pc;
        ++epoch_[o.thread];
        // A wrong-path fetch may have speculatively decoded a halt and
        // parked the thread; the redirect revives it.
        done_[o.thread] = false;
    }
}

void smt_model::act_retire(smt_op& o) {
    if (o.past_end) return;
    ++stats_.retired[o.thread];
    if (o.di.code == op::syscall_op) {
        isa::arch_state st;
        for (unsigned r = 0; r < 32; ++r) st.gpr[r] = m_r_.arch_read(o.thread * 32 + r);
        host_.handle(static_cast<std::uint16_t>(o.di.imm), st);
        if (st.halted) {
            done_[o.thread] = true;
            note_thread_exit();
        }
        return;
    }
    if (o.di.code == op::halt || o.di.code == op::invalid) note_thread_exit();
}

void smt_model::note_thread_exit() {
    ++halts_retired_;
    unsigned expected = 0;
    for (unsigned t = 0; t < cfg_.threads; ++t) {
        if (loaded_[t]) ++expected;
    }
    if (halts_retired_ >= expected) kern_.request_stop();
}

std::uint64_t smt_model::run(std::uint64_t max_cycles) {
    // A machine restored into the halted state never requested a kernel
    // stop, so it must not enter the cycle loop at all.  `drained()`, not
    // `all_done()`: the latter goes true at *fetch* of the exit, and
    // cutting the run there would strand the exit (and anything older)
    // in the pipeline when the caller steps cycle by cycle.
    if (drained()) {
        stats_.cycles = kern_.cycles();
        return 0;
    }
    const std::uint64_t executed = kern_.run(max_cycles);
    stats_.cycles = kern_.cycles();
    return executed;
}

stats::report smt_model::make_report() const {
    stats::report r;
    r.put("model", "name", std::string("smt"));
    r.put("run", "cycles", stats_.cycles);
    r.put("run", "retired", stats_.total_retired());
    r.put("run", "ipc", stats_.ipc());
    r.put("smt", "threads", static_cast<std::uint64_t>(cfg_.threads));
    for (unsigned t = 0; t < cfg_.threads; ++t) {
        const std::string tag = "t" + std::to_string(t);
        r.put("smt", tag + "_retired", stats_.retired[t]);
        r.put("smt", tag + "_fetched", stats_.fetched[t]);
    }
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

}  // namespace osm::smt
