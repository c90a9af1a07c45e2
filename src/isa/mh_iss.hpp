// Multi-hart instruction-set simulator.
//
// N copies of the VR32 architectural state execute over one shared-memory
// subsystem (mem/shared_mem.hpp) under a seeded, deterministic scheduler:
// each scheduler step picks one runnable hart with the PRNG and retires one
// instruction on it, and — under TSO — sometimes commits a buffered store
// from a randomly chosen hart first.  The whole run is a pure function of
// (program, hart count, memory model, schedule seed), which is what lets
// the litmus harness enumerate/replay interleavings and lets two runs be
// compared byte-for-byte.
//
// This is deliberately the plain interpretive core (no decode/block
// caches): multi-hart workloads are small racy kernels where schedule
// coverage matters more than single-hart throughput, and the single-hart
// ISS remains the fast path for everything else.
#pragma once

#include <cstdint>
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

    /// `harts` is clamped to [1, max_harts].  `sched_seed` seeds the scheduler PRNG;
    /// the same seed always produces the same interleaving.
    mh_iss(mem::main_memory& m, unsigned harts, mem::memory_model model,
           std::uint64_t sched_seed);

    /// Load `img`, reset every hart and reseed the scheduler.  Hart h starts at
    /// img.hart_entries[h] when provided, else at img.entry.
    void load(const program_image& img);

    unsigned harts() const noexcept { return shared_.harts(); }
    mem::memory_model model() const noexcept { return shared_.model(); }

    arch_state& state(unsigned h) noexcept { return states_[h]; }
    const arch_state& state(unsigned h) const noexcept { return states_[h]; }
    std::uint64_t instret(unsigned h) const noexcept { return instret_[h]; }
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

    /// Checkpoint restore: adopt hart `h`'s registers and retired count.
    /// Store buffers, reservations and the scheduler PRNG are restored
    /// separately through shared() / sched_rng().
    void restore_hart(unsigned h, const arch_state& st, std::uint64_t instret) {
        states_[h] = st;
        instret_[h] = instret;
    }

private:
    /// Retire one instruction on hart `h`.
    void step_hart(unsigned h);
    /// lr.w/sc.w/amo*/fence: ordering point — drain own buffer, then
    /// operate on committed memory.
    void step_amo(unsigned h, const decoded_inst& di);

    mem::shared_memory shared_;
    syscall_host host_;
    std::uint64_t sched_seed_;
    xrandom rng_;
    std::vector<arch_state> states_;
    std::vector<std::uint64_t> instret_;
};

}  // namespace osm::isa
