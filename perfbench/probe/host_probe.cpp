#include "host_probe.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t table_words = 1u << 14;  // 64 KiB
constexpr unsigned iterations = 100'000;

volatile std::uint32_t sink = 0;

}  // namespace

double host_probe_rate() {
    static std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(table_words);
        std::uint32_t v = 12345;
        for (auto& w : t) w = v = v * 1103515245u + 12345u;
        return t;
    }();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint32_t i = 0, acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned n = 0; n < iterations; ++n) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        i = (table[i] ^ static_cast<std::uint32_t>(x)) & (table_words - 1);
        switch (x & 3) {
        case 0: acc += table[i]; break;
        case 1: acc ^= i; break;
        case 2: table[i] += acc; break;
        default: acc = acc * 33 + 1; break;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    sink = acc;
    return iterations / std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace perfbench
