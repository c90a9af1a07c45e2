#include "isa/iss.hpp"

#include "isa/encoding.hpp"

namespace osm::isa {

void syscall_host::handle(std::uint16_t code, arch_state& st) {
    switch (static_cast<syscall_code>(code)) {
        case syscall_code::exit:
            st.halted = true;
            break;
        case syscall_code::putchar:
            console_.push_back(static_cast<char>(st.gpr[4] & 0xFFu));
            break;
        case syscall_code::putuint:
            console_ += std::to_string(st.gpr[4]);
            break;
        case syscall_code::putnl:
            console_.push_back('\n');
            break;
        default:
            // Unknown syscalls are ignored (matches "interpretation of
            // system calls in the ISS" slack the paper mentions).
            break;
    }
}

void iss::load(const program_image& img) {
    img.load_into(mem_);
    state_ = arch_state{};
    state_.pc = img.entry;
    instret_ = 0;
    resv_ = {};
    host_.clear();
    dcode_.invalidate_all();
    dcode_.reset_stats();
    bcache_.invalidate_all();
    bcache_.reset_stats();
}

void iss::restore_arch(const arch_state& st, std::uint64_t instret,
                       const std::string& console) {
    state_ = st;
    instret_ = instret;
    resv_ = {};
    host_.seed(console);
    // The caller may have restored memory holding different program bytes
    // at cached pcs.  The decode cache's word tags would catch that per
    // instruction, but translated blocks carry no per-instruction tags, so
    // both caches must forget everything derived from the old image.
    dcode_.invalidate_all();
    dcode_.reset_stats();
    bcache_.invalidate_all();
    bcache_.reset_stats();
}

bool iss::step() {
    if (state_.halted) return false;
    // The word is always fetched from memory, even on a cache hit: the
    // cache line's word tag is compared against it, which is what makes
    // self-modifying code re-decode without an invalidation protocol.
    const std::uint32_t word = mem_.read32(state_.pc);
    if (decode_cache_on_) return step_with(dcode_.lookup(state_.pc, word));
    return step_with(predecoded_inst::make(word));
}

bool iss::step_with(const predecoded_inst& pd) {
    const decoded_inst& di = pd.di;

    if (di.code == op::invalid || di.code == op::halt) {
        // Quiesce the hart: its buffered stores become visible before it
        // leaves the machine, so final memory never depends on whether a
        // drain happened to be scheduled after the halt.
        mem_.fence();
        state_.halted = true;
        ++instret_;
        return false;
    }
    if (di.code == op::syscall_op) {
        // Syscalls are ordering points too: console output reflects
        // committed memory, and exit quiesces like halt.
        mem_.fence();
        host_.handle(static_cast<std::uint16_t>(di.imm), state_);
        state_.pc += 4;
        ++instret_;
        return !state_.halted;
    }
    if (is_atomic_or_fence(di.code)) {  // one compare: ids appended after halt
        step_amo(di);
        state_.pc += 4;
        ++instret_;
        return true;
    }

    const std::uint32_t a = pd.rs1_fpr() ? state_.fpr[di.rs1] : state_.gpr[di.rs1];
    const std::uint32_t b = pd.rs2_fpr() ? state_.fpr[di.rs2] : state_.gpr[di.rs2];
    exec_out out = compute(di, state_.pc, a, b);

    if (pd.load()) {
        out.value = do_load(di.code, mem_, out.mem_addr);
    } else if (pd.store()) {
        do_store(di.code, mem_, out.mem_addr, out.store_data);
        // Interpretive steps can interleave with block execution (budget
        // fallback, mixed run()/step() callers), so their stores must also
        // police translated blocks.
        if (block_cache_on_ && bcache_.store_may_hit(out.mem_addr)) {
            bcache_.notify_store(out.mem_addr, 4);
        }
    }

    if (pd.writes_rd()) {
        if (pd.rd_fpr()) {
            state_.fpr[di.rd] = out.value;
        } else {
            state_.set_gpr(di.rd, out.value);
        }
    }
    state_.pc = out.redirect ? out.next_pc : state_.pc + 4;
    ++instret_;
    return true;
}

void iss::step_amo(const decoded_inst& di) {
    // Every op here is an ordering point: older stores commit first, and
    // the op's own write commits before the next instruction.  Under a
    // store buffer the op therefore reads and writes committed memory.
    mem_.fence();
    const std::uint32_t addr = state_.gpr[di.rs1] & ~3u;
    switch (di.code) {
        case op::lr_w:
            state_.set_gpr(di.rd, mem_.read32(addr));
            resv_ = {addr, true};
            break;
        case op::sc_w: {
            const bool ok = resv_.holds(addr);
            if (ok) {
                mem_.write32(addr, state_.gpr[di.rs2]);
                if (block_cache_on_ && bcache_.store_may_hit(addr)) {
                    bcache_.notify_store(addr, 4);
                }
            }
            // Any sc.w consumes the reservation, success or not.
            resv_.valid = false;
            state_.set_gpr(di.rd, ok ? 0u : 1u);
            break;
        }
        case op::amoadd_w:
        case op::amoswap_w: {
            const std::uint32_t old = mem_.read32(addr);
            const std::uint32_t rs2 = state_.gpr[di.rs2];
            mem_.write32(addr, di.code == op::amoadd_w ? old + rs2 : rs2);
            if (block_cache_on_ && bcache_.store_may_hit(addr)) {
                bcache_.notify_store(addr, 4);
            }
            state_.set_gpr(di.rd, old);
            break;
        }
        default:  // fence: the fence() calls around the switch are the barrier
            break;
    }
    mem_.fence();
}

// ---- translated-block dispatch ---------------------------------------------
//
// One handler body per op kind, shared between two dispatch strategies:
//   * computed-goto threading (GNU C extension): each handler jumps
//     straight into the next handler through a label table — no central
//     loop, one indirect branch per instruction;
//   * a portable switch loop for other compilers.
//
// Handler invariants:
//   * st.pc is NOT advanced per instruction — every pc the semantics need
//     comes from o->pc recorded at build time.  Terminators and the
//     fall-through tail write the final st.pc exactly once per block.
//   * Non-FPR destinations are guaranteed rd != 0 for kinds the builder
//     can remap to k_nop, so those handlers write gpr[rd] directly; loads
//     and jumps keep set_gpr (x0 pin).
//   * Stores screen the written address against the block cache's watch
//     range; a store that kills any block aborts the current block after
//     the store (its own remaining ops may be stale) and resumes
//     interpretively at the following pc.
//
// The X-macro list below MUST stay in exact `enum op` order: the computed
// goto table is indexed by the raw kind byte.  The static_asserts pin the
// enum size and several anchors so a reorder fails the build instead of
// dispatching the wrong handler.

static_assert(static_cast<int>(op::count_) == 70,
              "op enum changed: update OSM_BLOCK_OPS in iss.cpp");
static_assert(static_cast<int>(op::invalid) == 0 &&
                  static_cast<int>(op::add_r) == 1 &&
                  static_cast<int>(op::addi) == 19 &&
                  static_cast<int>(op::lb) == 30 &&
                  static_cast<int>(op::beq) == 38 &&
                  static_cast<int>(op::fadd) == 46 &&
                  static_cast<int>(op::halt) == 64 &&
                  static_cast<int>(op::lr_w) == 65 &&
                  static_cast<int>(op::fence) == 69,
              "op enum reordered: update OSM_BLOCK_OPS in iss.cpp");

#if defined(__GNUC__) || defined(__clang__)
#define OSM_DIRECT_THREADED 1
#endif

// Store handler tail: screen `addr_` against the watch range; on a
// confirmed code-page hit the overlapping blocks are dead — possibly
// including this one — so abort after the store.  Index and pc are captured
// before notify_store because invalidation may clear this block's op array.
#define OSM_SMC_CHECK(addr_, bytes_)                                     \
    if (bcache_.store_may_hit(addr_)) {                                  \
        const std::uint32_t spc_ = o->pc;                                \
        const std::uint64_t idx_ = static_cast<std::uint64_t>(o - base); \
        if (bcache_.notify_store((addr_), (bytes_))) {                   \
            st.pc = spc_ + 4;                                            \
            executed = idx_ + 1;                                         \
            goto finish;                                                 \
        }                                                                \
    }

#define OSM_BLOCK_OPS(X)                                                      \
    X(invalid, {                                                              \
        mem_.fence();                                                         \
        st.halted = true;                                                     \
        st.pc = o->pc;                                                        \
        goto term_done;                                                       \
    })                                                                        \
    X(add_r, { st.gpr[o->rd] = st.gpr[o->rs1] + st.gpr[o->rs2]; })            \
    X(sub_r, { st.gpr[o->rd] = st.gpr[o->rs1] - st.gpr[o->rs2]; })            \
    X(and_r, { st.gpr[o->rd] = st.gpr[o->rs1] & st.gpr[o->rs2]; })            \
    X(or_r, { st.gpr[o->rd] = st.gpr[o->rs1] | st.gpr[o->rs2]; })             \
    X(xor_r, { st.gpr[o->rd] = st.gpr[o->rs1] ^ st.gpr[o->rs2]; })            \
    X(nor_r, { st.gpr[o->rd] = ~(st.gpr[o->rs1] | st.gpr[o->rs2]); })         \
    X(sll_r, { st.gpr[o->rd] = st.gpr[o->rs1] << (st.gpr[o->rs2] & 31u); })   \
    X(srl_r, { st.gpr[o->rd] = st.gpr[o->rs1] >> (st.gpr[o->rs2] & 31u); })   \
    X(sra_r, {                                                                \
        st.gpr[o->rd] = static_cast<std::uint32_t>(                          \
            static_cast<std::int32_t>(st.gpr[o->rs1]) >>                     \
            (st.gpr[o->rs2] & 31u));                                          \
    })                                                                        \
    X(slt_r, {                                                                \
        st.gpr[o->rd] = static_cast<std::int32_t>(st.gpr[o->rs1]) <          \
                                static_cast<std::int32_t>(st.gpr[o->rs2])    \
                            ? 1u                                              \
                            : 0u;                                             \
    })                                                                        \
    X(sltu_r, { st.gpr[o->rd] = st.gpr[o->rs1] < st.gpr[o->rs2] ? 1u : 0u; }) \
    X(mul, { st.gpr[o->rd] = st.gpr[o->rs1] * st.gpr[o->rs2]; })              \
    X(mulh, {                                                                 \
        st.gpr[o->rd] = sem::mul_hi_s(st.gpr[o->rs1], st.gpr[o->rs2]);        \
    })                                                                        \
    X(mulhu, {                                                                \
        st.gpr[o->rd] = sem::mul_hi_u(st.gpr[o->rs1], st.gpr[o->rs2]);        \
    })                                                                        \
    X(div_s, {                                                                \
        st.gpr[o->rd] = sem::div_signed(st.gpr[o->rs1], st.gpr[o->rs2]);      \
    })                                                                        \
    X(div_u, {                                                                \
        const std::uint32_t b_ = st.gpr[o->rs2];                              \
        st.gpr[o->rd] = b_ == 0 ? ~0u : st.gpr[o->rs1] / b_;                  \
    })                                                                        \
    X(rem_s, {                                                                \
        st.gpr[o->rd] = sem::rem_signed(st.gpr[o->rs1], st.gpr[o->rs2]);      \
    })                                                                        \
    X(rem_u, {                                                                \
        const std::uint32_t b_ = st.gpr[o->rs2];                              \
        st.gpr[o->rd] = b_ == 0 ? st.gpr[o->rs1] : st.gpr[o->rs1] % b_;       \
    })                                                                        \
    X(addi, {                                                                 \
        st.gpr[o->rd] = st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);  \
    })                                                                        \
    X(andi, {                                                                 \
        st.gpr[o->rd] = st.gpr[o->rs1] & static_cast<std::uint32_t>(o->imm);  \
    })                                                                        \
    X(ori, {                                                                  \
        st.gpr[o->rd] = st.gpr[o->rs1] | static_cast<std::uint32_t>(o->imm);  \
    })                                                                        \
    X(xori, {                                                                 \
        st.gpr[o->rd] = st.gpr[o->rs1] ^ static_cast<std::uint32_t>(o->imm);  \
    })                                                                        \
    X(slti, {                                                                 \
        st.gpr[o->rd] =                                                       \
            static_cast<std::int32_t>(st.gpr[o->rs1]) < o->imm ? 1u : 0u;     \
    })                                                                        \
    X(sltiu, {                                                                \
        st.gpr[o->rd] =                                                       \
            st.gpr[o->rs1] < static_cast<std::uint32_t>(o->imm) ? 1u : 0u;    \
    })                                                                        \
    X(slli, {                                                                 \
        st.gpr[o->rd] = st.gpr[o->rs1]                                        \
                        << (static_cast<std::uint32_t>(o->imm) & 31u);        \
    })                                                                        \
    X(srli, {                                                                 \
        st.gpr[o->rd] =                                                       \
            st.gpr[o->rs1] >> (static_cast<std::uint32_t>(o->imm) & 31u);     \
    })                                                                        \
    X(srai, {                                                                 \
        st.gpr[o->rd] = static_cast<std::uint32_t>(                          \
            static_cast<std::int32_t>(st.gpr[o->rs1]) >>                     \
            (static_cast<std::uint32_t>(o->imm) & 31u));                      \
    })                                                                        \
    X(lui, { st.gpr[o->rd] = static_cast<std::uint32_t>(o->imm) << 16; })     \
    X(auipc, {                                                                \
        st.gpr[o->rd] = o->pc + (static_cast<std::uint32_t>(o->imm) << 16);   \
    })                                                                        \
    X(lb, {                                                                   \
        const std::uint32_t a_ =                                              \
            st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);              \
        st.set_gpr(o->rd,                                                     \
                   static_cast<std::uint32_t>(static_cast<std::int32_t>(      \
                       static_cast<std::int8_t>(mem_.read8(a_)))));           \
    })                                                                        \
    X(lbu, {                                                                  \
        st.set_gpr(o->rd, mem_.read8(st.gpr[o->rs1] +                         \
                                     static_cast<std::uint32_t>(o->imm)));    \
    })                                                                        \
    X(lh, {                                                                   \
        const std::uint32_t a_ =                                              \
            st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);              \
        st.set_gpr(o->rd,                                                     \
                   static_cast<std::uint32_t>(static_cast<std::int32_t>(      \
                       static_cast<std::int16_t>(mem_.read16(a_)))));         \
    })                                                                        \
    X(lhu, {                                                                  \
        st.set_gpr(o->rd, mem_.read16(st.gpr[o->rs1] +                        \
                                      static_cast<std::uint32_t>(o->imm)));   \
    })                                                                        \
    X(lw, {                                                                   \
        st.set_gpr(o->rd, mem_.read32(st.gpr[o->rs1] +                        \
                                      static_cast<std::uint32_t>(o->imm)));   \
    })                                                                        \
    X(sb, {                                                                   \
        const std::uint32_t a_ =                                              \
            st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);              \
        mem_.write8(a_, static_cast<std::uint8_t>(st.gpr[o->rs2]));           \
        OSM_SMC_CHECK(a_, 1)                                                  \
    })                                                                        \
    X(sh, {                                                                   \
        const std::uint32_t a_ =                                              \
            st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);              \
        mem_.write16(a_, static_cast<std::uint16_t>(st.gpr[o->rs2]));         \
        OSM_SMC_CHECK(a_, 2)                                                  \
    })                                                                        \
    X(sw, {                                                                   \
        const std::uint32_t a_ =                                              \
            st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);              \
        mem_.write32(a_, st.gpr[o->rs2]);                                     \
        OSM_SMC_CHECK(a_, 4)                                                  \
    })                                                                        \
    /* Conditional branches are superblock side exits: taken leaves the   */ \
    /* block through term_done, not taken falls through to the next op    */ \
    /* (the cap-cut path supplies pc when the branch is the last op).     */ \
    X(beq, {                                                                  \
        if (st.gpr[o->rs1] == st.gpr[o->rs2]) {                               \
            st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);           \
            goto term_done;                                                   \
        }                                                                     \
    })                                                                        \
    X(bne, {                                                                  \
        if (st.gpr[o->rs1] != st.gpr[o->rs2]) {                               \
            st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);           \
            goto term_done;                                                   \
        }                                                                     \
    })                                                                        \
    X(blt, {                                                                  \
        if (static_cast<std::int32_t>(st.gpr[o->rs1]) <                       \
            static_cast<std::int32_t>(st.gpr[o->rs2])) {                      \
            st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);           \
            goto term_done;                                                   \
        }                                                                     \
    })                                                                        \
    X(bge, {                                                                  \
        if (static_cast<std::int32_t>(st.gpr[o->rs1]) >=                      \
            static_cast<std::int32_t>(st.gpr[o->rs2])) {                      \
            st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);           \
            goto term_done;                                                   \
        }                                                                     \
    })                                                                        \
    X(bltu, {                                                                 \
        if (st.gpr[o->rs1] < st.gpr[o->rs2]) {                                \
            st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);           \
            goto term_done;                                                   \
        }                                                                     \
    })                                                                        \
    X(bgeu, {                                                                 \
        if (st.gpr[o->rs1] >= st.gpr[o->rs2]) {                               \
            st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);           \
            goto term_done;                                                   \
        }                                                                     \
    })                                                                        \
    X(jal, {                                                                  \
        st.set_gpr(o->rd, o->pc + 4);                                         \
        st.pc = o->pc + 4 + static_cast<std::uint32_t>(o->imm);               \
        goto term_done;                                                       \
    })                                                                        \
    X(jalr, {                                                                 \
        const std::uint32_t t_ = st.gpr[o->rs1];                              \
        st.set_gpr(o->rd, o->pc + 4);                                         \
        st.pc = (t_ + static_cast<std::uint32_t>(o->imm)) & ~3u;              \
        goto term_done;                                                       \
    })                                                                        \
    X(fadd, {                                                                 \
        st.fpr[o->rd] = sem::as_u(sem::as_f(st.fpr[o->rs1]) +                 \
                                  sem::as_f(st.fpr[o->rs2]));                 \
    })                                                                        \
    X(fsub, {                                                                 \
        st.fpr[o->rd] = sem::as_u(sem::as_f(st.fpr[o->rs1]) -                 \
                                  sem::as_f(st.fpr[o->rs2]));                 \
    })                                                                        \
    X(fmul, {                                                                 \
        st.fpr[o->rd] = sem::as_u(sem::as_f(st.fpr[o->rs1]) *                 \
                                  sem::as_f(st.fpr[o->rs2]));                 \
    })                                                                        \
    X(fdiv, {                                                                 \
        st.fpr[o->rd] = sem::as_u(sem::as_f(st.fpr[o->rs1]) /                 \
                                  sem::as_f(st.fpr[o->rs2]));                 \
    })                                                                        \
    X(fmin, {                                                                 \
        st.fpr[o->rd] = sem::as_u(std::fmin(sem::as_f(st.fpr[o->rs1]),        \
                                            sem::as_f(st.fpr[o->rs2])));      \
    })                                                                        \
    X(fmax, {                                                                 \
        st.fpr[o->rd] = sem::as_u(std::fmax(sem::as_f(st.fpr[o->rs1]),        \
                                            sem::as_f(st.fpr[o->rs2])));      \
    })                                                                        \
    X(fabs_f, { st.fpr[o->rd] = st.fpr[o->rs1] & 0x7FFFFFFFu; })              \
    X(fneg_f, { st.fpr[o->rd] = st.fpr[o->rs1] ^ 0x80000000u; })              \
    X(feq, {                                                                  \
        st.gpr[o->rd] =                                                       \
            sem::as_f(st.fpr[o->rs1]) == sem::as_f(st.fpr[o->rs2]) ? 1u : 0u; \
    })                                                                        \
    X(flt_f, {                                                                \
        st.gpr[o->rd] =                                                       \
            sem::as_f(st.fpr[o->rs1]) < sem::as_f(st.fpr[o->rs2]) ? 1u : 0u;  \
    })                                                                        \
    X(fle, {                                                                  \
        st.gpr[o->rd] =                                                       \
            sem::as_f(st.fpr[o->rs1]) <= sem::as_f(st.fpr[o->rs2]) ? 1u : 0u; \
    })                                                                        \
    X(fcvt_w_s, { st.gpr[o->rd] = sem::cvt_w_s(st.fpr[o->rs1]); })            \
    X(fcvt_s_w, {                                                             \
        st.fpr[o->rd] = sem::as_u(                                            \
            static_cast<float>(static_cast<std::int32_t>(st.gpr[o->rs1])));   \
    })                                                                        \
    X(fmv_x_w, { st.gpr[o->rd] = st.fpr[o->rs1]; })                           \
    X(fmv_w_x, { st.fpr[o->rd] = st.gpr[o->rs1]; })                           \
    X(flw, {                                                                  \
        st.fpr[o->rd] = mem_.read32(st.gpr[o->rs1] +                          \
                                    static_cast<std::uint32_t>(o->imm));      \
    })                                                                        \
    X(fsw, {                                                                  \
        const std::uint32_t a_ =                                              \
            st.gpr[o->rs1] + static_cast<std::uint32_t>(o->imm);              \
        mem_.write32(a_, st.fpr[o->rs2]);                                     \
        OSM_SMC_CHECK(a_, 4)                                                  \
    })                                                                        \
    X(syscall_op, {                                                           \
        mem_.fence();                                                         \
        host_.handle(static_cast<std::uint16_t>(o->imm), st);                 \
        st.pc = o->pc + 4;                                                    \
        goto term_done;                                                       \
    })                                                                        \
    X(halt, {                                                                 \
        mem_.fence();                                                         \
        st.halted = true;                                                     \
        st.pc = o->pc;                                                        \
        goto term_done;                                                       \
    })                                                                        \
    /* Atomics/fence are block terminators (see is_terminator): each is    */ \
    /* the final op of its block, so setting pc and leaving via term_done  */ \
    /* keeps the "ordering point at a block boundary" invariant.           */ \
    X(lr_w, {                                                                 \
        mem_.fence();                                                         \
        const std::uint32_t a_ = st.gpr[o->rs1] & ~3u;                        \
        st.set_gpr(o->rd, mem_.read32(a_));                                   \
        resv_ = {a_, true};                                                   \
        mem_.fence();                                                         \
        st.pc = o->pc + 4;                                                    \
        goto term_done;                                                       \
    })                                                                        \
    X(sc_w, {                                                                 \
        mem_.fence();                                                         \
        const std::uint32_t a_ = st.gpr[o->rs1] & ~3u;                        \
        const bool ok_ = resv_.holds(a_);                                     \
        resv_.valid = false;                                                  \
        if (ok_) mem_.write32(a_, st.gpr[o->rs2]);                            \
        mem_.fence();                                                         \
        st.set_gpr(o->rd, ok_ ? 0u : 1u);                                     \
        if (ok_) {                                                            \
            OSM_SMC_CHECK(a_, 4)                                              \
        }                                                                     \
        st.pc = o->pc + 4;                                                    \
        goto term_done;                                                       \
    })                                                                        \
    X(amoadd_w, {                                                             \
        mem_.fence();                                                         \
        const std::uint32_t a_ = st.gpr[o->rs1] & ~3u;                        \
        const std::uint32_t old_ = mem_.read32(a_);                           \
        mem_.write32(a_, old_ + st.gpr[o->rs2]);                              \
        mem_.fence();                                                         \
        st.set_gpr(o->rd, old_);                                              \
        OSM_SMC_CHECK(a_, 4)                                                  \
        st.pc = o->pc + 4;                                                    \
        goto term_done;                                                       \
    })                                                                        \
    X(amoswap_w, {                                                            \
        mem_.fence();                                                         \
        const std::uint32_t a_ = st.gpr[o->rs1] & ~3u;                        \
        const std::uint32_t old_ = mem_.read32(a_);                           \
        mem_.write32(a_, st.gpr[o->rs2]);                                     \
        mem_.fence();                                                         \
        st.set_gpr(o->rd, old_);                                              \
        OSM_SMC_CHECK(a_, 4)                                                  \
        st.pc = o->pc + 4;                                                    \
        goto term_done;                                                       \
    })                                                                        \
    X(fence, {                                                                \
        mem_.fence();                                                         \
        st.pc = o->pc + 4;                                                    \
        goto term_done;                                                       \
    })

std::uint64_t iss::exec_block(const basic_block& blk) {
    arch_state& st = state_;
    const block_op* const base = blk.ops.data();
    const block_op* const last = base + (blk.n - 1);
    const block_op* o = base;
    std::uint64_t executed = 0;

#ifdef OSM_DIRECT_THREADED

#define OSM_TBL_ENTRY(name, ...) &&lbl_##name,
    static const void* const tbl[] = {OSM_BLOCK_OPS(OSM_TBL_ENTRY) &&lbl_nop};
#undef OSM_TBL_ENTRY
    static_assert(sizeof(tbl) / sizeof(tbl[0]) ==
                      static_cast<std::size_t>(op::count_) + 1,
                  "dispatch table out of sync with enum op");

#define OSM_NEXT()                        \
    do {                                  \
        if (o == last) goto fall_through; \
        ++o;                              \
        goto* tbl[o->kind];               \
    } while (0)

    goto* tbl[o->kind];

#define OSM_LABEL(name, ...) \
    lbl_##name : __VA_ARGS__ OSM_NEXT();
    OSM_BLOCK_OPS(OSM_LABEL)
#undef OSM_LABEL
lbl_nop:
    OSM_NEXT();
#undef OSM_NEXT

#else  // portable switch dispatch

    for (;;) {
        switch (o->kind) {
#define OSM_CASE(name, ...)                     \
    case static_cast<std::uint8_t>(op::name): { \
        __VA_ARGS__                             \
    } break;
            OSM_BLOCK_OPS(OSM_CASE)
#undef OSM_CASE
            default:  // block_cache::k_nop
                break;
        }
        if (o == last) goto fall_through;
        ++o;
    }

#endif

term_done:
    executed = static_cast<std::uint64_t>(o - base) + 1;
    goto finish;

fall_through:
    // Cap-cut block: all n ops executed, control falls to the next pc.
    st.pc = blk.entry_pc + 4u * blk.n;
    executed = blk.n;

finish:
    instret_ += executed;
    bcache_.mutable_stats().block_insts += executed;
    return executed;
}

#undef OSM_BLOCK_OPS
#undef OSM_SMC_CHECK

stats::report iss::make_report() const {
    stats::report r;
    r.put("model", "name", std::string("iss"));
    r.put("run", "retired", instret_);
    r.put("decode_cache", "enabled", static_cast<std::uint64_t>(decode_cache_on_ ? 1 : 0));
    r.put("decode_cache", "hits", dcode_.stats().hits);
    r.put("decode_cache", "misses", dcode_.stats().misses);
    r.put("decode_cache", "evictions", dcode_.stats().evictions);
    r.put("decode_cache", "smc_redecodes", dcode_.stats().smc_redecodes);
    r.put("decode_cache", "hit_ratio", dcode_.stats().hit_ratio());
    r.put("block_cache", "enabled", static_cast<std::uint64_t>(block_cache_on_ ? 1 : 0));
    r.put("block_cache", "hits", bcache_.stats().hits);
    r.put("block_cache", "misses", bcache_.stats().misses);
    r.put("block_cache", "blocks_built", bcache_.stats().blocks_built);
    r.put("block_cache", "evictions", bcache_.stats().evictions);
    r.put("block_cache", "invalidations", bcache_.stats().invalidations);
    r.put("block_cache", "smc_stores", bcache_.stats().smc_stores);
    r.put("block_cache", "block_insts", bcache_.stats().block_insts);
    r.put("block_cache", "hit_ratio", bcache_.stats().hit_ratio());
    return r;
}

std::uint64_t iss::run(std::uint64_t max_steps) {
    const std::uint64_t before = instret_;
    if (!block_cache_on_) {
        std::uint64_t n = 0;
        while (n < max_steps && step()) ++n;
        // step() returns false on the halting instruction itself but still
        // counts it, so report retirements, not loop iterations.
        return instret_ - before;
    }

    std::uint64_t left = max_steps;
    while (left > 0 && !state_.halted) {
        const basic_block* b = bcache_.lookup(state_.pc);
        if (b == nullptr) {
            b = &bcache_.build(state_.pc, mem_,
                               decode_cache_on_ ? &dcode_ : nullptr);
        }
        if (b->n > left) {
            // Remaining budget smaller than the block: single-step so the
            // step count stays exact (run(1) callers keep per-instruction
            // semantics for lockstep and bisection).
            if (!step()) break;
            --left;
            continue;
        }
        left -= exec_block(*b);
    }
    return instret_ - before;
}

}  // namespace osm::isa
