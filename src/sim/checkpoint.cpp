#include "sim/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/atomic_file.hpp"

namespace osm::sim {
namespace {

constexpr char k_magic[8] = {'O', 'S', 'M', 'C', 'K', 'P', 'T', '\0'};

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---- little-endian writer ---------------------------------------------------

struct writer {
    std::vector<std::uint8_t> buf;

    void u8(std::uint8_t v) { buf.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void bytes(const void* p, std::size_t n) {
        if (n == 0) return;  // empty vectors may hand us data() == nullptr
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf.insert(buf.end(), b, b + n);
    }
};

// ---- bounds-checked little-endian reader ------------------------------------

struct reader {
    const std::uint8_t* data;
    std::size_t size;
    std::size_t pos = 0;

    void need(std::size_t n) const {
        if (size - pos < n) throw checkpoint_error("checkpoint truncated");
    }
    /// A length field counting records of at least `unit` bytes each,
    /// checked against the bytes left before any caller allocates for it.
    std::size_t length(std::uint64_t n, std::size_t unit = 1) const {
        if (n > (size - pos) / unit) throw checkpoint_error("checkpoint truncated");
        return static_cast<std::size_t>(n);
    }
    std::uint8_t u8() {
        need(1);
        return data[pos++];
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }
    void bytes(void* p, std::size_t n) {
        if (n == 0) return;  // empty destinations may hand us p == nullptr
        need(n);
        std::memcpy(p, data + pos, n);
        pos += n;
    }
};

void json_escape(std::string& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char hex[8];
                    std::snprintf(hex, sizeof hex, "\\u%04x", c);
                    out += hex;
                } else {
                    out += c;
                }
        }
    }
}

}  // namespace

const char* to_string(checkpoint_level level) {
    switch (level) {
        case checkpoint_level::none: return "none";
        case checkpoint_level::architectural: return "architectural";
        case checkpoint_level::exact: return "exact";
    }
    return "?";
}

std::vector<std::uint8_t> serialize(const checkpoint& ck) {
    writer w;
    w.bytes(k_magic, sizeof k_magic);
    w.u32(checkpoint::format_version);
    w.u8(static_cast<std::uint8_t>(ck.level));
    w.u32(static_cast<std::uint32_t>(ck.engine.size()));
    w.bytes(ck.engine.data(), ck.engine.size());
    w.u32(ck.arch.pc);
    w.u8(ck.arch.halted ? 1 : 0);
    for (const std::uint32_t r : ck.arch.gpr) w.u32(r);
    for (const std::uint32_t r : ck.arch.fpr) w.u32(r);
    w.u64(ck.retired);
    w.u64(ck.cycles);
    w.u64(ck.console.size());
    w.bytes(ck.console.data(), ck.console.size());
    w.u32(static_cast<std::uint32_t>(ck.pages.size()));
    for (const checkpoint_page& p : ck.pages) {
        w.u32(p.base);
        w.u32(static_cast<std::uint32_t>(p.bytes.size()));
        w.bytes(p.bytes.data(), p.bytes.size());
    }
    w.u64(ck.micro.size());
    w.bytes(ck.micro.data(), ck.micro.size());
    // ---- multi-hart section (v2) ----
    w.u8(ck.memory_model);
    w.u64(ck.sched_rng);
    w.u32(static_cast<std::uint32_t>(ck.harts.size()));
    for (const checkpoint_hart& h : ck.harts) {
        w.u32(h.arch.pc);
        w.u8(h.arch.halted ? 1 : 0);
        for (const std::uint32_t r : h.arch.gpr) w.u32(r);
        for (const std::uint32_t r : h.arch.fpr) w.u32(r);
        w.u64(h.retired);
        w.u8(h.resv_valid ? 1 : 0);
        w.u32(h.resv_addr);
        w.u32(static_cast<std::uint32_t>(h.stores.size()));
        for (const mem::store_entry& e : h.stores) {
            w.u32(e.addr);
            w.u8(e.size);
            w.u32(e.data);
        }
    }
    w.u64(fnv1a64(w.buf.data(), w.buf.size()));
    return w.buf;
}

checkpoint deserialize(const std::uint8_t* data, std::size_t n) {
    if (n < sizeof k_magic + 8) throw checkpoint_error("checkpoint truncated");
    if (std::memcmp(data, k_magic, sizeof k_magic) != 0)
        throw checkpoint_error("bad checkpoint magic");
    const std::uint64_t want = fnv1a64(data, n - 8);
    reader tail{data + n - 8, 8};
    if (tail.u64() != want) throw checkpoint_error("checkpoint checksum mismatch");

    reader r{data, n - 8, sizeof k_magic};
    const std::uint32_t version = r.u32();
    if (version != checkpoint::format_version)
        throw checkpoint_error("unsupported checkpoint version " + std::to_string(version));

    checkpoint ck;
    const std::uint8_t level = r.u8();
    if (level > static_cast<std::uint8_t>(checkpoint_level::exact))
        throw checkpoint_error("bad checkpoint level");
    ck.level = static_cast<checkpoint_level>(level);
    ck.engine.resize(r.length(r.u32()));
    r.bytes(ck.engine.data(), ck.engine.size());
    ck.arch.pc = r.u32();
    ck.arch.halted = r.u8() != 0;
    for (std::uint32_t& g : ck.arch.gpr) g = r.u32();
    for (std::uint32_t& f : ck.arch.fpr) f = r.u32();
    ck.retired = r.u64();
    ck.cycles = r.u64();
    ck.console.resize(r.length(r.u64()));
    r.bytes(ck.console.data(), ck.console.size());
    const std::uint32_t npages = r.u32();
    ck.pages.reserve(r.length(npages, 9));  // u32 base + u32 size + >= 1 byte
    std::uint64_t prev_base = 0;
    for (std::uint32_t i = 0; i < npages; ++i) {
        checkpoint_page p;
        p.base = r.u32();
        if (i > 0 && p.base <= prev_base)
            throw checkpoint_error("checkpoint pages out of order");
        prev_base = p.base;
        const std::uint32_t page_bytes = r.u32();
        if (page_bytes == 0 || page_bytes > mem::main_memory::page_size)
            throw checkpoint_error("bad checkpoint page size");
        p.bytes.resize(r.length(page_bytes));
        r.bytes(p.bytes.data(), p.bytes.size());
        ck.pages.push_back(std::move(p));
    }
    ck.micro.resize(r.length(r.u64()));
    r.bytes(ck.micro.data(), ck.micro.size());
    ck.memory_model = r.u8();
    if (ck.memory_model > static_cast<std::uint8_t>(mem::memory_model::tso))
        throw checkpoint_error("bad checkpoint memory model");
    ck.sched_rng = r.u64();
    const std::uint32_t nharts = r.u32();
    if (nharts > 64) throw checkpoint_error("bad checkpoint hart count");
    ck.harts.reserve(nharts);
    for (std::uint32_t i = 0; i < nharts; ++i) {
        checkpoint_hart h;
        h.arch.pc = r.u32();
        h.arch.halted = r.u8() != 0;
        for (std::uint32_t& g : h.arch.gpr) g = r.u32();
        for (std::uint32_t& f : h.arch.fpr) f = r.u32();
        h.retired = r.u64();
        h.resv_valid = r.u8() != 0;
        h.resv_addr = r.u32();
        h.stores.resize(r.length(r.u32(), 9));  // u32 + u8 + u32 each
        for (mem::store_entry& e : h.stores) {
            e.addr = r.u32();
            e.size = r.u8();
            if (e.size != 1 && e.size != 2 && e.size != 4)
                throw checkpoint_error("bad checkpoint store-buffer entry");
            e.data = r.u32();
        }
        ck.harts.push_back(std::move(h));
    }
    if (r.pos != r.size) throw checkpoint_error("trailing bytes in checkpoint");
    return ck;
}

checkpoint deserialize(const std::vector<std::uint8_t>& buf) {
    return deserialize(buf.data(), buf.size());
}

std::string sidecar_json(const checkpoint& ck) {
    const std::vector<std::uint8_t> bin = serialize(ck);
    std::uint64_t mem_bytes = 0;
    for (const checkpoint_page& p : ck.pages) mem_bytes += p.bytes.size();

    std::string js = "{\n";
    js += "  \"format_version\": " + std::to_string(checkpoint::format_version) + ",\n";
    js += "  \"engine\": \"";
    json_escape(js, ck.engine);
    js += "\",\n";
    js += "  \"level\": \"" + std::string(to_string(ck.level)) + "\",\n";
    {
        char pc[16];
        std::snprintf(pc, sizeof pc, "0x%08x", ck.arch.pc);
        js += "  \"pc\": \"" + std::string(pc) + "\",\n";
    }
    js += "  \"halted\": " + std::string(ck.arch.halted ? "true" : "false") + ",\n";
    js += "  \"retired\": " + std::to_string(ck.retired) + ",\n";
    js += "  \"cycles\": " + std::to_string(ck.cycles) + ",\n";
    js += "  \"console_bytes\": " + std::to_string(ck.console.size()) + ",\n";
    js += "  \"console\": \"";
    json_escape(js, ck.console);
    js += "\",\n";
    js += "  \"memory_pages\": " + std::to_string(ck.pages.size()) + ",\n";
    js += "  \"memory_bytes\": " + std::to_string(mem_bytes) + ",\n";
    js += "  \"micro_bytes\": " + std::to_string(ck.micro.size()) + ",\n";
    js += "  \"memory_model\": \"" +
          std::string(mem::memory_model_name(static_cast<mem::memory_model>(ck.memory_model))) +
          "\",\n";
    js += "  \"harts\": " + std::to_string(ck.harts.size()) + ",\n";
    {
        std::uint64_t buffered = 0;
        for (const checkpoint_hart& h : ck.harts) buffered += h.stores.size();
        js += "  \"buffered_stores\": " + std::to_string(buffered) + ",\n";
    }
    js += "  \"binary_bytes\": " + std::to_string(bin.size()) + ",\n";
    {
        char sum[24];
        std::snprintf(sum, sizeof sum, "%016llx",
                      static_cast<unsigned long long>(fnv1a64(bin.data(), bin.size() - 8)));
        js += "  \"fnv1a64\": \"" + std::string(sum) + "\"\n";
    }
    js += "}\n";
    return js;
}

void save_checkpoint_file(const checkpoint& ck, const std::string& path) {
    const std::vector<std::uint8_t> bin = serialize(ck);
    // Atomic replacement: a checkpoint is a resume point, so a writer killed
    // mid-save must leave the previous complete snapshot, not a torn one.
    try {
        common::atomic_write_file(path, bin.data(), bin.size());
        common::atomic_write_file(path + ".json", sidecar_json(ck));
    } catch (const std::runtime_error& e) {
        throw checkpoint_error(e.what());
    }
}

checkpoint load_checkpoint_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw checkpoint_error("cannot open " + path);
    std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
    return deserialize(buf);
}

std::vector<checkpoint_page> snapshot_memory(const mem::main_memory& m) {
    std::vector<checkpoint_page> pages;
    for (const std::uint32_t base : m.resident_page_bases()) {
        const std::uint8_t* data = m.page_data(base);
        std::size_t n = mem::main_memory::page_size;
        while (n > 0 && data[n - 1] == 0) --n;
        if (n == 0) continue;  // all-zero page: indistinguishable from absent
        checkpoint_page p;
        p.base = base;
        p.bytes.assign(data, data + n);
        pages.push_back(std::move(p));
    }
    return pages;
}

void restore_memory(mem::main_memory& m, const std::vector<checkpoint_page>& pages) {
    for (const checkpoint_page& p : pages) m.load(p.base, p.bytes.data(), p.bytes.size());
}

}  // namespace osm::sim
