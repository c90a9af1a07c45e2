// osm-bench: machine-readable throughput snapshot over the mixed workload
// suite.  Emits exactly one stable-schema JSON document ("osm-bench-1") on
// stdout: per-engine steady-state Minst/s and cycles/sec plus decode- and
// block-cache hit ratios, and the ISS block-/decode-cache ablation rows.
//
//   osm-bench [--scale N] [--reps N] [--engines a,b,...|all]
//   osm-bench --serve [--seeds LO:HI] [--jobs N]
//
// scripts/bench.sh redirects this into BENCH_1.json (the committed
// snapshot); scripts/bench_gate.py re-runs it under ctest and fails on a
// >10% throughput loss against that snapshot.  Every run does one untimed
// warmup pass per workload so the timed region is steady-state (the same
// protocol as the §5 speed benches).
//
// --serve switches to the sharded-campaign benchmark instead: the same
// quick-matrix fuzz campaign is timed serially (jobs=1), on a --jobs worker
// pool, and twice against an on-disk result cache (cold fill, then warm
// replay).  It emits a separate "osm-bench-serve-1" document, which
// scripts/bench.sh commits as BENCH_2.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "fuzz/campaign.hpp"
#include "ppc32/randprog.hpp"
#include "serve/campaign_service.hpp"
#include "sim/diff_runner.hpp"
#include "sim/registry.hpp"
#include "workloads/workloads.hpp"

using namespace osm;

namespace {

struct measurement {
    double secs = 0;
    double insts = 0;
    double cycles = 0;
    double dcache_hits = 0;
    double dcache_misses = 0;
    double bcache_hits = 0;
    double bcache_misses = 0;
    bool ran = false;

    void merge(const measurement& o) {
        secs += o.secs;
        insts += o.insts;
        cycles += o.cycles;
        dcache_hits += o.dcache_hits;
        dcache_misses += o.dcache_misses;
        bcache_hits += o.bcache_hits;
        bcache_misses += o.bcache_misses;
        ran = ran || o.ran;
    }

    double mips() const { return secs > 0 ? insts / secs / 1e6 : 0.0; }
    double cyc_per_sec() const { return secs > 0 ? cycles / secs : 0.0; }
    static double ratio(double h, double m) {
        return (h + m) > 0 ? h / (h + m) : 0.0;
    }
    double dcache_ratio() const { return ratio(dcache_hits, dcache_misses); }
    double bcache_ratio() const { return ratio(bcache_hits, bcache_misses); }
};

/// Pull a counter from a report section, tolerating engines that do not
/// expose it (only the ISS has a block_cache section today).
double counter(const stats::report& r, const std::string& sec,
               const std::string& key) {
    try {
        return static_cast<double>(std::get<std::uint64_t>(r.at(sec, key)));
    } catch (const std::out_of_range&) {
        return 0.0;
    }
}

/// Repetition counts matching the speed benches: the functional ISS needs
/// more reps to rise above timer noise.
unsigned reps_for(const std::string& name, unsigned mult) {
    unsigned base = 1;
    if (name == "iss" || name == "ppc32") base = 4;
    else if (name == "hw") base = 2;
    return base * mult;
}

/// The guest ISA of a registered engine ("vr32" for unknown names: the
/// make_engine call below reports those with a proper error).
std::string isa_of(const std::string& name) {
    const auto* e = sim::engine_registry::instance().find(name);
    return e != nullptr ? e->isa : "vr32";
}

/// PPC32 engines can't run the VR32 mixed suite, so they are measured on
/// a fixed random-program suite from the ppc32 generator: loop-heavy so
/// the dynamic instruction count rises above timer noise.
std::vector<isa::program_image> ppc32_suite(unsigned scale) {
    std::vector<isa::program_image> out;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        ppc32::randprog_options opt;
        opt.seed = seed * 7919u;
        opt.blocks = 10;
        opt.block_len = 10;
        opt.loop_count = 4000u * scale;
        out.push_back(ppc32::make_random_program(opt));
    }
    return out;
}

measurement measure_engine(const std::string& name, const sim::engine_config& cfg,
                           unsigned scale, unsigned reps) {
    measurement m;
    if (isa_of(name) == "ppc32") {
        for (const auto& img : ppc32_suite(scale)) {
            {
                auto warm = sim::make_engine(name, cfg);
                warm->load(img);
                warm->run(2'000'000'000ull);
            }
            for (unsigned r = 0; r < reps; ++r) {
                auto eng = sim::make_engine(name, cfg);
                eng->load(img);
                const auto t0 = std::chrono::steady_clock::now();
                eng->run(2'000'000'000ull);
                m.secs += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
                m.insts += static_cast<double>(eng->retired());
                m.cycles += static_cast<double>(eng->cycles());
                m.ran = true;
            }
        }
        return m;
    }
    const bool fp_ok = sim::make_engine(name, cfg)->executes_fp();
    for (auto& w : workloads::mixed_suite(scale)) {
        if (!fp_ok && sim::program_uses_fp(w.image)) continue;
        {
            // Untimed warmup: cold-start host costs stay out of the
            // timed region.
            auto warm = sim::make_engine(name, cfg);
            warm->load(w.image);
            warm->run(2'000'000'000ull);
        }
        for (unsigned r = 0; r < reps; ++r) {
            auto eng = sim::make_engine(name, cfg);
            eng->load(w.image);
            const auto t0 = std::chrono::steady_clock::now();
            eng->run(2'000'000'000ull);
            m.secs += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
            m.insts += static_cast<double>(eng->retired());
            m.cycles += static_cast<double>(eng->cycles());
            const auto rep = eng->stats_report();
            m.dcache_hits += counter(rep, "decode_cache", "hits");
            m.dcache_misses += counter(rep, "decode_cache", "misses");
            m.bcache_hits += counter(rep, "block_cache", "hits");
            m.bcache_misses += counter(rep, "block_cache", "misses");
            m.ran = true;
        }
    }
    return m;
}

std::vector<std::string> split_names(const std::string& list) {
    std::vector<std::string> out;
    std::istringstream in(list);
    std::string name;
    while (std::getline(in, name, ',')) {
        if (!name.empty()) out.push_back(name);
    }
    return out;
}

double time_of(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// The sharded-campaign benchmark: one quick-matrix campaign, measured
/// serial / pooled / cache-cold / cache-warm.  The interesting column on a
/// single-core host is the warm-cache replay (pure memoization); the
/// jobs-N column only scales with real cores.
int run_serve_bench(std::uint64_t seed_lo, std::uint64_t seed_hi, unsigned jobs) {
    fuzz::campaign_options copt;
    copt.seed_lo = seed_lo;
    copt.seed_hi = seed_hi;
    copt.quick = true;
    copt.minimize = false;
    const double seeds = static_cast<double>(seed_hi - seed_lo + 1);

    // Untimed warmup so host cold-start costs stay out of every column.
    (void)fuzz::run_campaign(copt);

    const double serial_s = time_of([&] { (void)fuzz::run_campaign(copt); });

    serve::serve_options so;
    so.campaign = copt;
    so.jobs = jobs;
    const double pool_s = time_of([&] { (void)serve::run_campaign_service(so); });

    const auto cache_dir =
        std::filesystem::temp_directory_path() /
        ("osm-bench-serve-" + std::to_string(static_cast<unsigned long>(::getpid())));
    serve::serve_options sc = so;
    sc.cache_dir = cache_dir.string();
    double cold_s = 0, warm_s = 0;
    std::uint64_t warm_hits = 0, warm_lookups = 0;
    try {
        cold_s = time_of([&] { (void)serve::run_campaign_service(sc); });
        serve::serve_result warm_res;
        warm_s = time_of([&] { warm_res = serve::run_campaign_service(sc); });
        warm_hits = warm_res.cache.hits + warm_res.cache.disk_hits;
        warm_lookups = warm_res.cache.lookups;
    } catch (...) {
        std::error_code ec;
        std::filesystem::remove_all(cache_dir, ec);
        throw;
    }
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);

    const auto rate = [&](double s) { return s > 0 ? seeds / s : 0.0; };
    std::fprintf(stderr,
                 "osm-bench: serve %6.2f seeds/s serial, %6.2f at jobs=%u, "
                 "%6.2f cache-warm (%.2fx)\n",
                 rate(serial_s), rate(pool_s), jobs, rate(warm_s),
                 warm_s > 0 ? cold_s / warm_s : 0.0);
    std::printf("{\n");
    std::printf("  \"schema\": \"osm-bench-serve-1\",\n");
    std::printf("  \"suite\": \"fuzz-quick\",\n");
    std::printf("  \"seeds\": %.0f,\n", seeds);
    std::printf("  \"jobs\": %u,\n", jobs);
    std::printf("  \"serial_seeds_per_sec\": %.3f,\n", rate(serial_s));
    std::printf("  \"jobs_seeds_per_sec\": %.3f,\n", rate(pool_s));
    std::printf("  \"jobs_speedup\": %.3f,\n", pool_s > 0 ? serial_s / pool_s : 0.0);
    std::printf("  \"cache_cold_seeds_per_sec\": %.3f,\n", rate(cold_s));
    std::printf("  \"cache_warm_seeds_per_sec\": %.3f,\n", rate(warm_s));
    std::printf("  \"cache_warm_speedup\": %.3f,\n", warm_s > 0 ? cold_s / warm_s : 0.0);
    std::printf("  \"cache_warm_hit_ratio\": %.6f\n",
                warm_lookups > 0 ? static_cast<double>(warm_hits) /
                                       static_cast<double>(warm_lookups)
                                 : 0.0);
    std::printf("}\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    unsigned scale = 2;
    unsigned mult = 1;
    std::string engine_spec = "all";
    bool serve = false;
    std::uint64_t serve_lo = 1, serve_hi = 48;
    unsigned serve_jobs = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scale" && i + 1 < argc) scale = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
        else if (arg == "--reps" && i + 1 < argc) mult = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
        else if (arg == "--engines" && i + 1 < argc) engine_spec = argv[++i];
        else if (arg == "--serve") serve = true;
        else if (arg == "--seeds" && i + 1 < argc) {
            const std::string range = argv[++i];
            const auto colon = range.find(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr, "osm-bench: --seeds wants LO:HI\n");
                return 2;
            }
            serve_lo = std::strtoull(range.substr(0, colon).c_str(), nullptr, 0);
            serve_hi = std::strtoull(range.substr(colon + 1).c_str(), nullptr, 0);
        } else if (arg == "--jobs" && i + 1 < argc) {
            serve_jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
        } else {
            std::fprintf(stderr,
                         "usage: osm-bench [--scale N] [--reps N] [--engines a,b,...|all]\n"
                         "       osm-bench --serve [--seeds LO:HI] [--jobs N]\n");
            return 2;
        }
    }
    if (serve) {
        if (serve_jobs == 0 || serve_hi < serve_lo) {
            std::fprintf(stderr, "osm-bench: bad --serve parameters\n");
            return 2;
        }
        return run_serve_bench(serve_lo, serve_hi, serve_jobs);
    }
    if (scale == 0 || mult == 0) {
        std::fprintf(stderr, "osm-bench: --scale/--reps must be >= 1\n");
        return 2;
    }

    std::vector<std::string> names;
    if (engine_spec == "all") {
        // The VR32 engines share the mixed workload suite; the PPC32
        // functional ISS rides along on its own generator suite (the
        // ppc32-750 timing model is diffable but not benched by default).
        names = sim::engine_registry::instance().names_for_isa("vr32");
        names.push_back("ppc32");
    } else {
        names = split_names(engine_spec);
    }

    std::printf("{\n");
    std::printf("  \"schema\": \"osm-bench-1\",\n");
    std::printf("  \"suite\": \"mixed\",\n");
    std::printf("  \"scale\": %u,\n", scale);
    std::printf("  \"engines\": {\n");
    bool first = true;
    for (const auto& name : names) {
        sim::engine_config cfg;  // defaults: decode and block caches on
        const auto m = measure_engine(name, cfg, scale, reps_for(name, mult));
        if (!m.ran) continue;
        std::fprintf(stderr, "osm-bench: %-6s %10.2f Minst/s\n", name.c_str(),
                     m.mips());
        std::printf("%s    \"%s\": {\n", first ? "" : ",\n", name.c_str());
        std::printf("      \"mips\": %.3f,\n", m.mips());
        std::printf("      \"cycles_per_sec\": %.1f,\n", m.cyc_per_sec());
        std::printf("      \"decode_cache_hit_ratio\": %.6f,\n", m.dcache_ratio());
        std::printf("      \"block_cache_hit_ratio\": %.6f\n", m.bcache_ratio());
        std::printf("    }");
        first = false;
    }
    std::printf("\n  },\n");

    // ISS ablations.  Block cache: off-column keeps the decode cache on, so
    // the ratio is translated-block dispatch vs the decode-cache baseline
    // (target >= 5x).  Decode cache: both caches off vs decode-only.  The
    // on/off measurements are interleaved rep-by-rep so slow host-frequency
    // drift hits both columns equally instead of biasing the ratio.
    sim::engine_config on_cfg, off_cfg, dc_cfg;
    off_cfg.block_cache = false;
    dc_cfg.block_cache = false;
    dc_cfg.decode_cache = false;
    const unsigned reps = reps_for("iss", mult);
    measurement bc_on, bc_off, dc_off;
    for (unsigned r = 0; r < reps; ++r) {
        bc_on.merge(measure_engine("iss", on_cfg, scale, 1));
        bc_off.merge(measure_engine("iss", off_cfg, scale, 1));
        dc_off.merge(measure_engine("iss", dc_cfg, scale, 1));
    }
    const double bc_speedup = bc_off.mips() > 0 ? bc_on.mips() / bc_off.mips() : 0;
    const double dc_speedup = dc_off.mips() > 0 ? bc_off.mips() / dc_off.mips() : 0;
    std::fprintf(stderr,
                 "osm-bench: iss block-cache ablation %.2f / %.2f Minst/s = %.2fx\n",
                 bc_on.mips(), bc_off.mips(), bc_speedup);
    std::printf("  \"ablation\": {\n");
    std::printf("    \"iss_block_cache_on_mips\": %.3f,\n", bc_on.mips());
    std::printf("    \"iss_block_cache_off_mips\": %.3f,\n", bc_off.mips());
    std::printf("    \"iss_block_cache_speedup\": %.3f,\n", bc_speedup);
    std::printf("    \"iss_decode_cache_off_mips\": %.3f,\n", dc_off.mips());
    std::printf("    \"iss_decode_cache_speedup\": %.3f\n", dc_speedup);
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}
