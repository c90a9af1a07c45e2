#include "serve/result_cache.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.hpp"

namespace osm::serve {
namespace {

constexpr char k_magic[8] = {'O', 'S', 'M', 'R', 'C', '0', '1', '\0'};

std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t h = 0xcbf29ce484222325ull) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string hex64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Bounds-checked little-endian reader over a byte span; `ok` latches
/// false on any under-run so callers can validate once at the end.
struct reader {
    const std::uint8_t* p;
    std::size_t n;
    std::size_t pos = 0;
    bool ok = true;

    bool need(std::size_t k) {
        if (!ok || n - pos < k) return ok = false;
        return true;
    }
    std::uint8_t u8() {
        if (!need(1)) return 0;
        return p[pos++];
    }
    std::uint32_t u32() {
        if (!need(4)) return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[pos++]) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        if (!need(8)) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
        return v;
    }
    std::string str(std::size_t k) {
        if (!need(k)) return {};
        std::string s(reinterpret_cast<const char*>(p + pos), k);
        pos += k;
        return s;
    }
};

}  // namespace

result_cache::result_cache(options opt) : opt_(std::move(opt)) {
    if (!opt_.dir.empty()) std::filesystem::create_directories(opt_.dir);
}

std::string result_cache::cache_key(const std::string& engine,
                                    const isa::program_image& img,
                                    const sim::engine_config& cfg,
                                    std::uint64_t max_cycles) {
    std::string key = "engine=" + engine;
    key += ";entry=" + hex64(img.entry);
    for (const auto& seg : img.segments) {
        key += ";seg=" + hex64(seg.base) + ":" + std::to_string(seg.bytes.size()) +
               ":" + hex64(fnv1a64(seg.bytes.data(), seg.bytes.size()));
    }
    key += ";fwd=" + std::to_string(cfg.forwarding ? 1 : 0);
    key += ";dcache=" + std::to_string(cfg.decode_cache ? 1 : 0) + ":" +
           std::to_string(cfg.decode_cache_entries);
    key += ";bcache=" + std::to_string(cfg.block_cache ? 1 : 0);
    key += ";max_cycles=" + std::to_string(max_cycles);
    return key;
}

std::uint64_t result_cache::key_hash(const std::string& key) {
    return fnv1a64(key.data(), key.size());
}

std::string result_cache::entry_path(const std::string& key) const {
    return opt_.dir + "/" + hex64(key_hash(key)) + ".osc";
}

std::vector<std::uint8_t> result_cache::serialize_entry(const std::string& key,
                                                        const sim::end_state& st) {
    std::vector<std::uint8_t> b;
    b.insert(b.end(), k_magic, k_magic + sizeof k_magic);
    put_u32(b, static_cast<std::uint32_t>(key.size()));
    b.insert(b.end(), key.begin(), key.end());
    b.push_back(st.halted ? 1 : 0);
    put_u64(b, st.cycles);
    put_u64(b, st.retired);
    for (const std::uint32_t r : st.gpr) put_u32(b, r);
    for (const std::uint32_t r : st.fpr) put_u32(b, r);
    put_u64(b, st.console.size());
    b.insert(b.end(), st.console.begin(), st.console.end());
    put_u64(b, fnv1a64(b.data(), b.size()));
    return b;
}

std::optional<sim::end_state> result_cache::parse_entry(
    const std::string& key, const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < sizeof k_magic + 8) return std::nullopt;
    if (std::memcmp(bytes.data(), k_magic, sizeof k_magic) != 0) return std::nullopt;
    const std::uint64_t want = fnv1a64(bytes.data(), bytes.size() - 8);
    reader tail{bytes.data() + bytes.size() - 8, 8};
    if (tail.u64() != want) return std::nullopt;

    reader r{bytes.data(), bytes.size() - 8, sizeof k_magic};
    const std::uint32_t key_len = r.u32();
    const std::string stored_key = r.str(key_len);
    sim::end_state st;
    st.halted = r.u8() != 0;
    st.cycles = r.u64();
    st.retired = r.u64();
    for (std::uint32_t& g : st.gpr) g = r.u32();
    for (std::uint32_t& f : st.fpr) f = r.u32();
    st.console = r.str(static_cast<std::size_t>(r.u64()));
    if (!r.ok || r.pos != r.n) return std::nullopt;
    // A full-key mismatch under an equal filename hash is a collision:
    // treat as absent rather than returning another program's state.
    if (stored_key != key) return std::nullopt;
    return st;
}

std::optional<sim::end_state> result_cache::lookup(const std::string& engine,
                                                   const isa::program_image& img,
                                                   std::uint64_t max_cycles) {
    return lookup_key(cache_key(engine, img, opt_.config, max_cycles));
}

void result_cache::store(const std::string& engine, const isa::program_image& img,
                         std::uint64_t max_cycles, const sim::end_state& st) {
    store_key(cache_key(engine, img, opt_.config, max_cycles), st);
}

std::optional<sim::end_state> result_cache::lookup_key(const std::string& key) {
    const std::uint64_t h = key_hash(key);
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.lookups;
    const auto it = map_.find(h);
    if (it != map_.end()) {
        if (it->second.key == key) {
            ++stats_.hits;
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            return it->second.state;
        }
        ++stats_.collisions;  // same 64-bit hash, different key: miss
    }
    if (opt_.dir.empty()) {
        ++stats_.misses;
        return std::nullopt;
    }

    // Disk probe outside the lock: file IO must not serialize the workers.
    const std::string path = entry_path(key);
    lock.unlock();
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::lock_guard<std::mutex> relock(mu_);
        ++stats_.misses;
        return std::nullopt;
    }
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                    std::istreambuf_iterator<char>());
    auto st = parse_entry(key, bytes);
    std::lock_guard<std::mutex> relock(mu_);
    if (!st) {
        // Truncated, bit-flipped, or a filename-hash collision.
        ++stats_.rejected;
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.disk_hits;
    return st;
}

void result_cache::store_key(const std::string& key, const sim::end_state& st) {
    std::vector<std::uint8_t> disk_bytes;
    if (!opt_.dir.empty()) disk_bytes = serialize_entry(key, st);

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.stores;
        const std::uint64_t h = key_hash(key);
        auto it = map_.find(h);
        if (it != map_.end()) {
            // Refresh (or displace a colliding key: last writer wins).
            it->second.key = key;
            it->second.state = st;
            lru_.splice(lru_.begin(), lru_, it->second.lru);
        } else {
            if (opt_.capacity > 0 && map_.size() >= opt_.capacity) {
                map_.erase(lru_.back());
                lru_.pop_back();
                ++stats_.evictions;
            }
            lru_.push_front(h);
            map_.emplace(h, entry{key, st, lru_.begin()});
        }
    }
    if (!opt_.dir.empty()) {
        // Atomic replacement: concurrent writers of the same key race
        // benignly (both files carry the same bytes), and readers never
        // observe a torn entry.
        try {
            common::atomic_write_file(entry_path(key), disk_bytes.data(),
                                      disk_bytes.size());
        } catch (const std::exception&) {
            // Cache writes are best-effort; a full disk must not fail jobs.
        }
    }
}

cache_stats result_cache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t result_cache::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

}  // namespace osm::serve
