#include "isa/mh_iss.hpp"

#include "isa/decode_cache.hpp"
#include "isa/semantics.hpp"

namespace osm::isa {

mh_iss::mh_iss(mem::main_memory& m, unsigned harts, mem::memory_model model,
               std::uint64_t sched_seed)
    : shared_(m, harts == 0 ? 1 : (harts > max_harts ? max_harts : harts), model),
      sched_seed_(sched_seed),
      rng_(sched_seed),
      states_(shared_.harts()),
      instret_(shared_.harts(), 0) {}

void mh_iss::load(const program_image& img) {
    img.load_into(shared_.backing());
    for (unsigned h = 0; h < harts(); ++h) {
        states_[h] = arch_state{};
        states_[h].pc = h < img.hart_entries.size() ? img.hart_entries[h] : img.entry;
        instret_[h] = 0;
        shared_.set_buffer(h, {});
        shared_.clear_reservation(h);
    }
    host_.clear();
    rng_ = xrandom(sched_seed_);
}

std::uint64_t mh_iss::total_retired() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t r : instret_) n += r;
    return n;
}

bool mh_iss::all_halted() const noexcept {
    for (const arch_state& st : states_) {
        if (!st.halted) return false;
    }
    return true;
}

bool mh_iss::step() {
    // Collect runnable harts in hart order so the PRNG draw sequence — and
    // therefore the schedule — depends only on (seed, machine state).
    unsigned runnable[max_harts];
    unsigned n = 0;
    for (unsigned h = 0; h < harts(); ++h) {
        if (!states_[h].halted) runnable[n++] = h;
    }
    if (n == 0) return false;

    if (shared_.model() == mem::memory_model::tso) {
        // Asynchronous store-buffer drain: with probability 1/4 commit the
        // oldest store of a randomly chosen buffered hart before executing.
        // This is what surfaces TSO-only outcomes (e.g. SB's 0/0): a store
        // can stay buffered while the other hart's load reads stale memory,
        // or commit early relative to its hart's later loads — never
        // reordered against the hart's *own* stores (FIFO drain).
        unsigned buffered[max_harts];
        unsigned m = 0;
        for (unsigned h = 0; h < harts(); ++h) {
            if (!shared_.buffer_empty(h)) buffered[m++] = h;
        }
        if (m != 0 && rng_.chance(1, 4)) {
            shared_.drain_one(buffered[rng_.next_below(m)]);
        }
    }

    step_hart(runnable[rng_.next_below(n)]);
    return true;
}

std::uint64_t mh_iss::run(std::uint64_t max_insts) {
    std::uint64_t done = 0;
    while (done < max_insts && step()) ++done;
    return done;
}

void mh_iss::step_hart(unsigned h) {
    arch_state& st = states_[h];
    mem::hart_port& port = shared_.port(h);

    const std::uint32_t word = port.read32(st.pc);
    const predecoded_inst pd = predecoded_inst::make(word);
    const decoded_inst& di = pd.di;

    if (di.code == op::invalid || di.code == op::halt) {
        // Quiesce the hart: its buffered stores become visible before it
        // leaves the machine, so final memory never depends on whether a
        // drain happened to be scheduled after the halt.
        shared_.drain_all(h);
        st.halted = true;
        ++instret_[h];
        return;
    }
    if (di.code == op::syscall_op) {
        // Syscalls are ordering points too (console output must reflect
        // committed memory, and exit must quiesce like halt).
        shared_.drain_all(h);
        host_.handle(static_cast<std::uint16_t>(di.imm), st);
        st.pc += 4;
        ++instret_[h];
        return;
    }
    if (is_atomic_or_fence(di.code)) {
        step_amo(h, di);
        st.pc += 4;
        ++instret_[h];
        return;
    }

    const std::uint32_t a = pd.rs1_fpr() ? st.fpr[di.rs1] : st.gpr[di.rs1];
    const std::uint32_t b = pd.rs2_fpr() ? st.fpr[di.rs2] : st.gpr[di.rs2];
    exec_out out = compute(di, st.pc, a, b);

    if (pd.load()) {
        out.value = do_load(di.code, port, out.mem_addr);
    } else if (pd.store()) {
        do_store(di.code, port, out.mem_addr, out.store_data);
    }

    if (pd.writes_rd()) {
        if (pd.rd_fpr()) {
            st.fpr[di.rd] = out.value;
        } else {
            st.set_gpr(di.rd, out.value);
        }
    }
    st.pc = out.redirect ? out.next_pc : st.pc + 4;
    ++instret_[h];
}

void mh_iss::step_amo(unsigned h, const decoded_inst& di) {
    arch_state& st = states_[h];
    // Every op here is an ordering point: older stores commit first, in
    // FIFO order.  Under SC the buffer is always empty and this is a no-op.
    shared_.drain_all(h);
    const std::uint32_t addr = st.gpr[di.rs1] & ~3u;
    switch (di.code) {
        case op::lr_w:
            st.set_gpr(di.rd, shared_.backing().read32(addr));
            shared_.set_reservation(h, addr);
            break;
        case op::sc_w: {
            const bool ok = shared_.reservation_holds(h, addr);
            if (ok) shared_.commit_direct(h, addr, 4, st.gpr[di.rs2]);
            // Any sc.w consumes the reservation, success or not.
            shared_.clear_reservation(h);
            st.set_gpr(di.rd, ok ? 0u : 1u);
            break;
        }
        case op::amoadd_w:
        case op::amoswap_w: {
            const std::uint32_t old = shared_.backing().read32(addr);
            const std::uint32_t rs2 = st.gpr[di.rs2];
            shared_.commit_direct(h, addr, 4,
                                  di.code == op::amoadd_w ? old + rs2 : rs2);
            st.set_gpr(di.rd, old);
            break;
        }
        default:  // fence: the drain above *is* the barrier
            break;
    }
}

}  // namespace osm::isa
