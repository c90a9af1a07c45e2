// Instruction-set simulator: the functional golden model.
//
// Both case-study micro-architecture models in the paper are "based on
// existing ISSs"; this class plays that role.  It also provides the shared
// syscall host used by every engine so console output and halting behave
// identically everywhere.  The multi-hart ISS (mh_iss.hpp) runs one
// instance per hart over that hart's shared-memory port, so this is the
// only VR32 interpreter.
//
// Two host-side fast paths, both architecturally invisible:
//   * decode cache — (pc, word)-tagged pre-decoded instructions (PR 2);
//   * block cache  — translated basic blocks executed by a threaded-code
//     dispatch loop that never re-enters fetch/decode between
//     instructions (see block_cache.hpp and exec_block in iss.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "isa/arch.hpp"
#include "isa/block_cache.hpp"
#include "isa/decode_cache.hpp"
#include "isa/program.hpp"
#include "isa/semantics.hpp"
#include "mem/memory_if.hpp"
#include "stats/stats.hpp"

namespace osm::isa {

/// Console + exit behaviour shared by all execution engines.
class syscall_host {
public:
    /// Execute syscall `code` against `st` (reads a0..a3); may set
    /// st.halted and append to the console stream.
    void handle(std::uint16_t code, arch_state& st);

    const std::string& console() const noexcept { return console_; }
    void clear() { console_.clear(); }
    /// Replace the stream wholesale (checkpoint restore: the restored
    /// machine continues appending after the checkpointed output).
    void seed(std::string s) { console_ = std::move(s); }

private:
    std::string console_;
};

/// Functional simulator: interpretive stepping plus a translated-block
/// fast path.
class iss {
public:
    explicit iss(mem::memory_if& m, bool use_decode_cache = true,
                 bool use_block_cache = true)
        : iss(m, own_host_, own_resv_,
              use_decode_cache ? decode_cache::k_default_entries : 0, use_block_cache) {}

    /// One hart of a multi-hart machine (mh_iss.hpp): console output goes
    /// to the shared `host`, the LR/SC reservation lives in `resv` (the
    /// memory layer's record for this hart, which other harts' commits can
    /// kill), and there is no block cache.  `decode_entries` sizes the
    /// decode cache; 0 turns it off.
    iss(mem::memory_if& m, syscall_host& host, mem::reservation& resv,
        std::size_t decode_entries)
        : iss(m, host, resv, decode_entries, false) {}

    /// Holds references into itself (host_, resv_).
    iss(const iss&) = delete;
    iss& operator=(const iss&) = delete;

    /// Load `img` into memory and point pc at its entry.
    void load(const program_image& img);

    /// Adopt a previously captured architectural state: registers, pc and
    /// halt flag from `st`, retired counter `instret`, console stream
    /// `console`; the reservation is cleared.  Memory is restored
    /// separately by the caller (the ISS does not own its memory).  Both
    /// caches are flushed: the restored image may hold different program
    /// bytes at cached pcs, so stale decodes or translated blocks must
    /// never survive a restore.
    void restore_arch(const arch_state& st, std::uint64_t instret,
                      const std::string& console);

    arch_state& state() noexcept { return state_; }
    const arch_state& state() const noexcept { return state_; }
    syscall_host& host() noexcept { return host_; }
    const syscall_host& host() const noexcept { return host_; }

    /// Retired instruction count.
    std::uint64_t instret() const noexcept { return instret_; }

    /// Execute one instruction interpretively.  Returns false when already
    /// halted.  An `invalid` opcode halts the machine (modeling an
    /// undefined-instruction trap).  Halt, invalid and syscalls call
    /// memory_if::fence() first; lr.w/sc.w/amo*/fence call it before and
    /// after, so a store-buffered memory sees every ordering point.
    bool step();

    /// Run until halt or `max_steps`; returns instructions executed by
    /// this call (not the lifetime total — see instret()).  With the block
    /// cache enabled, runs translated blocks through the threaded dispatch
    /// loop and falls back to step() when the remaining budget is smaller
    /// than the next block.
    std::uint64_t run(std::uint64_t max_steps = ~0ull);

    bool decode_cache_enabled() const noexcept { return decode_cache_on_; }
    const decode_cache_stats& decode_stats() const noexcept { return dcode_.stats(); }

    bool block_cache_enabled() const noexcept { return block_cache_on_; }
    const block_cache_stats& block_stats() const noexcept { return bcache_.stats(); }

    /// Structured report (retired count + cache counters).
    stats::report make_report() const;

    /// LR/SC reservation: only this hart's lr.w sets it and only its sc.w
    /// consumes it.  Exposed so checkpoints can carry an in-flight
    /// reservation across save/restore.
    mem::reservation& reservation() noexcept { return resv_; }
    const mem::reservation& reservation() const noexcept { return resv_; }

private:
    /// A disabled cache keeps a one-entry table it never touches.
    iss(mem::memory_if& m, syscall_host& host, mem::reservation& resv,
        std::size_t decode_entries, bool use_block_cache)
        : mem_(m),
          host_(host),
          resv_(resv),
          dcode_(decode_entries == 0 ? 1 : decode_entries),
          bcache_(use_block_cache ? block_cache::k_default_entries : 1),
          decode_cache_on_(decode_entries != 0),
          block_cache_on_(use_block_cache) {}

    bool step_with(const predecoded_inst& pd);
    /// lr.w/sc.w/amoadd.w/amoswap.w/fence: the interpretive-path handler
    /// (step_with dispatches here on one compare; pc/instret advance there).
    void step_amo(const decoded_inst& di);
    /// Execute `blk` to its terminator (or SMC abort) with the threaded
    /// dispatch loop; returns instructions retired (adds them to instret_).
    std::uint64_t exec_block(const basic_block& blk);

    mem::memory_if& mem_;
    syscall_host own_host_;
    mem::reservation own_resv_;
    syscall_host& host_;        ///< own_host_, or the machine's shared host
    mem::reservation& resv_;    ///< own_resv_, or the memory layer's record
    arch_state state_;
    std::uint64_t instret_ = 0;
    decode_cache dcode_;
    block_cache bcache_;
    bool decode_cache_on_;
    bool block_cache_on_;
};

}  // namespace osm::isa
