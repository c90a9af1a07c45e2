// Functional and timing memory interfaces.
//
// The framework separates *functional* storage (what value lives at an
// address) from *timing* (how many cycles an access costs).  Functional
// state lives in one backing store shared by all models of a processor;
// caches, TLBs and buses are timing devices layered in front of it.  This
// mirrors the paper's setup where the memory subsystem lives purely in the
// hardware layer and never exchanges tokens with operations.
#pragma once

#include <cstdint>

namespace osm::mem {

/// Byte-addressed functional memory.
class memory_if {
public:
    virtual ~memory_if() = default;

    virtual std::uint8_t read8(std::uint32_t addr) = 0;
    virtual void write8(std::uint32_t addr, std::uint8_t value) = 0;

    /// Little-endian composite accessors with overridable fast paths.
    virtual std::uint16_t read16(std::uint32_t addr);
    virtual std::uint32_t read32(std::uint32_t addr);
    virtual void write16(std::uint32_t addr, std::uint16_t value);
    virtual void write32(std::uint32_t addr, std::uint32_t value);

    /// Ordering point: every store written through this interface so far
    /// becomes visible to other observers before the call returns.  A
    /// no-op for plain memory; a hart's store-buffered view drains its own
    /// buffer (shared_mem.hpp).
    virtual void fence() {}
};

/// LR/SC reservation on one aligned word.  A single-hart interpreter keeps
/// its own; shared_memory keeps one per hart and kills it when another
/// hart's store commits over the word.
struct reservation {
    std::uint32_t addr = 0;  ///< word-aligned
    bool valid = false;

    bool holds(std::uint32_t a) const noexcept { return valid && addr == (a & ~3u); }
};

/// Result of a timed access: whether the top level hit and the total
/// latency in cycles (including any lower-level fill).
struct access_result {
    bool hit = true;
    unsigned latency = 1;
};

/// Timing-side memory hierarchy interface.  Implementations are stateful
/// (cache tags, TLB entries) but carry no data.
class timed_mem_if {
public:
    virtual ~timed_mem_if() = default;

    /// Account one access of `size` bytes at `addr`; `is_write` selects the
    /// store path.  Returns hit/latency for the whole hierarchy below.
    virtual access_result access(std::uint32_t addr, bool is_write, unsigned size) = 0;
};

/// Fixed-latency timing endpoint (DRAM-ish).
class fixed_latency_mem final : public timed_mem_if {
public:
    explicit fixed_latency_mem(unsigned latency) : latency_(latency) {}
    access_result access(std::uint32_t, bool, unsigned) override {
        return {true, latency_};
    }

private:
    unsigned latency_;
};

}  // namespace osm::mem
