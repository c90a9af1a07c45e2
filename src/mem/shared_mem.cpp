#include "mem/shared_mem.hpp"

namespace osm::mem {

const char* memory_model_name(memory_model m) noexcept {
    return m == memory_model::tso ? "tso" : "sc";
}

shared_memory::shared_memory(main_memory& backing, unsigned harts, memory_model model)
    : backing_(backing),
      model_(model),
      bufs_(harts == 0 ? 1 : harts),
      resv_(bufs_.size()) {
    ports_.reserve(bufs_.size());
    for (unsigned h = 0; h < bufs_.size(); ++h) ports_.emplace_back(*this, h);
}

std::uint8_t shared_memory::read_byte(unsigned h, std::uint32_t addr) {
    // Newest-wins forwarding: scan the hart's own buffer back to front.
    const auto& buf = bufs_[h];
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
        if (addr >= it->addr && addr < it->addr + it->size) {
            return static_cast<std::uint8_t>(it->data >> (8 * (addr - it->addr)));
        }
    }
    return backing_.read8(addr);
}

void shared_memory::store(unsigned h, std::uint32_t addr, unsigned size,
                          std::uint32_t data) {
    const store_entry e{addr, static_cast<std::uint8_t>(size), data};
    if (model_ == memory_model::sc) {
        commit(h, e);
    } else {
        bufs_[h].push_back(e);
    }
}

void shared_memory::drain_one(unsigned h) {
    auto& buf = bufs_[h];
    if (buf.empty()) return;
    const store_entry e = buf.front();
    buf.pop_front();
    commit(h, e);
}

void shared_memory::drain_all(unsigned h) {
    while (!bufs_[h].empty()) drain_one(h);
}

void shared_memory::set_buffer(unsigned h, std::vector<store_entry> entries) {
    bufs_[h].assign(entries.begin(), entries.end());
}

void shared_memory::commit(unsigned h, const store_entry& e) {
    switch (e.size) {
        case 1: backing_.write8(e.addr, static_cast<std::uint8_t>(e.data)); break;
        case 2: backing_.write16(e.addr, static_cast<std::uint16_t>(e.data)); break;
        default: backing_.write32(e.addr, e.data); break;
    }
    // A commit from hart h kills every *other* hart's reservation whose
    // word overlaps the written range.  Own commits keep the reservation:
    // with one hart this degenerates to the single-hart ISS rule, and an
    // sc.w consumes its own reservation explicitly in the interpreter.
    for (unsigned i = 0; i < resv_.size(); ++i) {
        if (i == h || !resv_[i].valid) continue;
        if (resv_[i].addr < e.addr + e.size && e.addr < resv_[i].addr + 4) {
            resv_[i].valid = false;
        }
    }
}

std::uint8_t hart_port::read8(std::uint32_t addr) {
    return shared_->read_byte(hart_, addr);
}

std::uint16_t hart_port::read16(std::uint32_t addr) {
    return static_cast<std::uint16_t>(shared_->read_byte(hart_, addr) |
                                      shared_->read_byte(hart_, addr + 1) << 8);
}

std::uint32_t hart_port::read32(std::uint32_t addr) {
    return static_cast<std::uint32_t>(shared_->read_byte(hart_, addr)) |
           static_cast<std::uint32_t>(shared_->read_byte(hart_, addr + 1)) << 8 |
           static_cast<std::uint32_t>(shared_->read_byte(hart_, addr + 2)) << 16 |
           static_cast<std::uint32_t>(shared_->read_byte(hart_, addr + 3)) << 24;
}

void hart_port::write8(std::uint32_t addr, std::uint8_t value) {
    shared_->store(hart_, addr, 1, value);
}

void hart_port::write16(std::uint32_t addr, std::uint16_t value) {
    shared_->store(hart_, addr, 2, value);
}

void hart_port::write32(std::uint32_t addr, std::uint32_t value) {
    shared_->store(hart_, addr, 4, value);
}

void hart_port::fence() { shared_->drain_all(hart_); }

}  // namespace osm::mem
