// Multi-hart shared-memory subsystem with a configurable consistency model.
//
// Functional storage stays in one `main_memory` (the committed state all
// harts eventually agree on); this layer adds what the consistency model
// needs on top:
//
//   * SC  — sequential consistency: every store commits to the backing
//     memory at the instruction that executes it, so the global order of
//     memory operations is exactly the scheduler's interleaving.
//   * TSO — total store order: each hart owns a FIFO store buffer (the
//     conceptual descendant of the timing-side write_buffer split out in
//     PR 2, but *functional* here: it holds data, not just occupancy).
//     Stores enqueue; the buffer drains to committed memory in FIFO order
//     at scheduler-chosen points and at every ordering instruction
//     (fence, lr/sc, amo, syscall, halt).  Loads forward byte-wise from
//     the hart's own buffer (newest entry wins) before falling through to
//     committed memory — a hart always sees its own stores, other harts
//     only see commits.  This is the classic SPARC/x86-TSO operational
//     model and is what makes SB's r1==0 && r2==0 outcome reachable.
//
// Ordering points (fence, lr/sc, amo, syscall, halt) reach this layer as
// memory_if::fence() on the hart's port, which drains that hart's buffer.
// LR/SC reservations live here too, one record per hart: the hart's
// interpreter sets and consumes it, and any *commit* from a different hart
// that overlaps the word kills it (own commits keep it, so single-hart
// behaviour degenerates to the plain ISS).  Everything is plain
// deterministic data — two runs that issue the same operation sequence
// observe identical values, which is the byte-reproducibility contract the
// litmus harness depends on.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/main_memory.hpp"
#include "mem/memory_if.hpp"

namespace osm::mem {

/// Consistency model selector (engine_config.memory_model).
enum class memory_model : std::uint8_t {
    sc = 0,   ///< sequential consistency: stores commit in program order, instantly
    tso = 1,  ///< total store order: per-hart FIFO store buffer + load forwarding
};

const char* memory_model_name(memory_model m) noexcept;

/// One buffered (not yet committed) store.
struct store_entry {
    std::uint32_t addr = 0;
    std::uint8_t size = 0;  ///< 1, 2 or 4 bytes
    std::uint32_t data = 0;  ///< little-endian, low `size` bytes valid
};

class shared_memory;

/// Per-hart memory_if view: reads forward from the owning hart's store
/// buffer, writes enqueue (TSO) or commit (SC), fence() drains the buffer.
/// Each hart's isa::iss executes through its port, so the single-hart
/// interpreter runs unchanged on multi-hart memory.
class hart_port final : public memory_if {
public:
    hart_port() = default;
    hart_port(shared_memory& shared, unsigned hart) : shared_(&shared), hart_(hart) {}

    std::uint8_t read8(std::uint32_t addr) override;
    std::uint16_t read16(std::uint32_t addr) override;
    std::uint32_t read32(std::uint32_t addr) override;
    void write8(std::uint32_t addr, std::uint8_t value) override;
    void write16(std::uint32_t addr, std::uint16_t value) override;
    void write32(std::uint32_t addr, std::uint32_t value) override;
    void fence() override;

private:
    shared_memory* shared_ = nullptr;
    unsigned hart_ = 0;
};

class shared_memory {
public:
    shared_memory(main_memory& backing, unsigned harts, memory_model model);

    unsigned harts() const noexcept { return static_cast<unsigned>(bufs_.size()); }
    memory_model model() const noexcept { return model_; }
    main_memory& backing() noexcept { return backing_; }

    /// The memory_if view hart `h` executes through.
    hart_port& port(unsigned h) { return ports_[h]; }

    // ---- hart-side operations (called through hart_port) -----------------
    /// Forwarded read: newest matching byte in hart `h`'s own buffer, else
    /// committed memory.
    std::uint8_t read_byte(unsigned h, std::uint32_t addr);
    /// Store of `size` bytes: enqueue under TSO, commit directly under SC.
    void store(unsigned h, std::uint32_t addr, unsigned size, std::uint32_t data);

    // ---- ordering points --------------------------------------------------
    /// Commit the oldest buffered store of hart `h` (no-op when empty).
    void drain_one(unsigned h);
    /// Commit hart `h`'s whole buffer in FIFO order.
    void drain_all(unsigned h);
    bool buffer_empty(unsigned h) const { return bufs_[h].empty(); }
    const std::deque<store_entry>& buffer(unsigned h) const { return bufs_[h]; }
    /// Checkpoint restore: replace hart `h`'s buffer wholesale.
    void set_buffer(unsigned h, std::vector<store_entry> entries);

    // ---- LR/SC reservations ----------------------------------------------
    /// Hart `h`'s reservation record; its interpreter sets and consumes it.
    reservation& hart_reservation(unsigned h) { return resv_[h]; }
    const reservation& hart_reservation(unsigned h) const { return resv_[h]; }

private:
    /// Write `e` to backing memory and kill overlapping reservations held
    /// by *other* harts.
    void commit(unsigned h, const store_entry& e);

    main_memory& backing_;
    memory_model model_;
    std::vector<std::deque<store_entry>> bufs_;  ///< per-hart FIFO
    std::vector<reservation> resv_;
    std::vector<hart_port> ports_;
};

}  // namespace osm::mem
