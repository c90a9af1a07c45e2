// Multi-hart instruction-set simulator.
//
// N single-hart ISSs (isa/iss.hpp) execute over one shared-memory
// subsystem (mem/shared_mem.hpp) under a seeded, deterministic scheduler:
// each scheduler step picks one runnable hart with the PRNG and retires one
// instruction on it, and — under TSO — sometimes commits a buffered store
// from a randomly chosen hart first.  The whole run is a pure function of
// (program, hart count, memory model, schedule seed), which is what lets
// the litmus harness enumerate/replay interleavings and lets two runs be
// compared byte-for-byte.
//
// The instruction semantics are the ISS's own; everything multi-hart lives
// on the memory side.  Hart h executes through shared().port(h), whose
// fence() drains the hart's store buffer at every ordering point, and keeps
// its LR/SC reservation in the shared memory's record for h, where another
// hart's commit can kill it.  Each hart has a decode cache (optional) but
// no block cache: the scheduler interleaves one instruction at a time, so
// there is no block to run between scheduling points.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/xrandom.hpp"
#include "isa/arch.hpp"
#include "isa/iss.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "mem/shared_mem.hpp"

namespace osm::isa {

/// Deterministic N-hart interpreter over a shared memory.
class mh_iss {
public:
    /// Scheduler bookkeeping uses fixed-size scratch arrays; far above any
    /// realistic litmus/fuzz configuration (the generators use 2-4).
    static constexpr unsigned max_harts = 64;

    /// Decode-cache lines per hart.  A hart runs one small kernel; a
    /// single-hart-sized table (4096 lines) per hart made short multi-hart
    /// runs spend more time building and flushing caches than executing.
    static constexpr std::size_t hart_decode_entries = 1024;

    /// `harts` is clamped to [1, max_harts].  `sched_seed` seeds the scheduler PRNG;
    /// the same seed always produces the same interleaving.
    mh_iss(mem::main_memory& m, unsigned harts, mem::memory_model model,
           std::uint64_t sched_seed, bool use_decode_cache = true);

    /// Load `img`, reset every hart and reseed the scheduler.  Hart h starts at
    /// img.hart_entries[h] when provided, else at img.entry.
    void load(const program_image& img);

    unsigned harts() const noexcept { return shared_.harts(); }
    mem::memory_model model() const noexcept { return shared_.model(); }

    const arch_state& state(unsigned h) const noexcept { return harts_[h]->state(); }
    std::uint64_t instret(unsigned h) const noexcept { return harts_[h]->instret(); }
    std::uint64_t total_retired() const noexcept;
    bool all_halted() const noexcept;

    syscall_host& host() noexcept { return host_; }
    const syscall_host& host() const noexcept { return host_; }
    mem::shared_memory& shared() noexcept { return shared_; }
    const mem::shared_memory& shared() const noexcept { return shared_; }
    xrandom& sched_rng() noexcept { return rng_; }
    const xrandom& sched_rng() const noexcept { return rng_; }

    /// One scheduler step: possibly drain one buffered store (TSO), then
    /// retire one instruction on a PRNG-chosen runnable hart.  Returns
    /// false when every hart has halted (no step taken).
    bool step();

    /// Step until all harts halt or `max_insts` instructions retire;
    /// returns instructions executed by this call.
    std::uint64_t run(std::uint64_t max_insts = ~0ull);

    /// Checkpoint restore: adopt hart `h`'s registers and retired count
    /// (iss::restore_arch, so the hart's decode cache is flushed and its
    /// reservation cleared).  Store buffers, reservations, the console and
    /// the scheduler PRNG are restored separately through shared() /
    /// host() / sched_rng().
    void restore_hart(unsigned h, const arch_state& st, std::uint64_t instret) {
        harts_[h]->restore_arch(st, instret, host_.console());
    }

private:
    mem::shared_memory shared_;
    syscall_host host_;
    std::uint64_t sched_seed_;
    xrandom rng_;
    std::vector<std::unique_ptr<iss>> harts_;
};

}  // namespace osm::isa
