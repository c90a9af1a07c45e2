// Reproduces the paper §5.1 throughput comparison: "The resulting simulator
// runs at the average speed of 650k cycles/sec ... In comparison, the ARM
// simulator of the SimpleScalar tool-set runs at 550k cycles/sec on the
// same machine."
//
// Substitution (DESIGN.md): the SimpleScalar role is played by the
// hand-sequentialized cycle simulator of the same pipeline.  Note that this
// baseline is leaner than SimpleScalar (no RUU machinery, no per-cycle
// statistics sweep), so the measured ratio overstates the hand-coded side
// relative to the paper's comparison; EXPERIMENTS.md discusses this.
//
// Engines are constructed through the sim::engine registry; the hot loop is
// still a single engine::run() call over the whole workload, so the adapter
// adds no per-cycle overhead.  The decode-cache ablation iterates every
// registered engine, so a newly-registered engine is benched for free.
#include <chrono>
#include <cstdio>
#include <string>

#include "sim/diff_runner.hpp"
#include "sim/registry.hpp"
#include "workloads/workloads.hpp"

using namespace osm;

namespace {

/// Load + run `img` on a fresh `name` engine; returns {seconds, engine}.
struct timed_run {
    double secs = 0;
    std::unique_ptr<sim::engine> eng;
};

timed_run measure(const std::string& name, const sim::engine_config& cfg,
                  const isa::program_image& img) {
    timed_run t;
    t.eng = sim::make_engine(name, cfg);
    t.eng->load(img);
    const auto t0 = std::chrono::steady_clock::now();
    t.eng->run(2'000'000'000ull);
    t.secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return t;
}

/// Steady-state simulated-instruction throughput (Minst/s) of engine
/// `name` over the workload suite, repeated `reps` times so short
/// workloads measure above timer noise.  A fresh engine is built per run
/// (construction is noise next to millions of simulated cycles).  One
/// untimed warmup run per workload precedes the timed reps so cold-start
/// costs (host icache/branch predictors, allocator arenas, page faults)
/// are not billed to the timed region.  FP workloads are skipped for
/// integer-only engines; returns a negative value if nothing ran.
double measure_minst(const std::string& name, const sim::engine_config& cfg,
                     unsigned reps) {
    const bool fp_ok = sim::make_engine(name, cfg)->executes_fp();
    double insts = 0;
    double secs = 0;
    for (auto& w : workloads::mediabench_suite(2)) {
        if (!fp_ok && sim::program_uses_fp(w.image)) continue;
        measure(name, cfg, w.image);  // untimed warmup
        for (unsigned r = 0; r < reps; ++r) {
            auto t = measure(name, cfg, w.image);
            secs += t.secs;
            insts += static_cast<double>(t.eng->retired());
        }
    }
    return secs > 0 ? insts / secs / 1e6 : -1.0;
}

/// Per-engine repetition counts: the fast functional ISS needs more reps to
/// rise above timer noise; the cycle-accurate engines need fewer.
unsigned reps_for(const std::string& name) {
    if (name == "iss") return 8;
    if (name == "hw") return 2;
    return 1;
}

/// Decode-cache on/off ablation: the cache is architecturally invisible, so
/// the *only* difference between the two configurations is wall-clock time
/// per simulated instruction.  The functional ISS is the pure fetch/decode
/// hot path; the cycle-accurate engines dilute the win with per-cycle
/// scheduling work, which the table makes visible.  Every engine in the
/// registry gets a row.
void decode_cache_ablation() {
    std::printf("\n== decode-cache ablation (pre-decoded (pc, word)-tagged cache) ==\n\n");
    std::printf("%-26s %12s %12s %9s\n", "engine", "on Minst/s", "off Minst/s",
                "speedup");

    double iss_ratio = 0;
    for (const auto& name : sim::engine_registry::instance().names()) {
        sim::engine_config cfg;
        const unsigned reps = reps_for(name);
        cfg.decode_cache = true;
        const double on = measure_minst(name, cfg, reps);
        cfg.decode_cache = false;
        const double off = measure_minst(name, cfg, reps);
        if (on < 0 || off < 0) continue;
        if (name == "iss") iss_ratio = on / off;
        std::printf("%-26s %12.2f %12.2f %8.2fx\n", name.c_str(), on, off,
                    on / off);
    }
    std::printf("\nfetch/decode hot path speedup with the cache on: %.2fx (target >= 1.2x: %s)\n",
                iss_ratio, iss_ratio >= 1.2 ? "met" : "NOT MET");
}

/// Block-cache on/off ablation.  Both configurations keep the decode cache
/// on, so the "off" column is the decode-cache baseline and the ISS row
/// isolates the translated-block/threaded-dispatch win.  The timing
/// engines fetch through the OSM pipeline (no block dispatch), so their
/// rows stay ~1.0x — the table makes that explicit rather than implying
/// the speedup transfers.
void block_cache_ablation() {
    std::printf("\n== block-cache ablation (translated basic blocks + threaded dispatch) ==\n\n");
    std::printf("%-26s %12s %12s %9s\n", "engine", "on Minst/s", "off Minst/s",
                "speedup");

    double iss_ratio = 0;
    for (const auto& name : sim::engine_registry::instance().names()) {
        sim::engine_config cfg;
        const unsigned reps = reps_for(name);
        cfg.block_cache = true;
        const double on = measure_minst(name, cfg, reps);
        cfg.block_cache = false;
        const double off = measure_minst(name, cfg, reps);
        if (on < 0 || off < 0) continue;
        if (name == "iss") iss_ratio = on / off;
        std::printf("%-26s %12.2f %12.2f %8.2fx\n", name.c_str(), on, off,
                    on / off);
    }
    std::printf("\nISS speedup over the decode-cache baseline: %.2fx (target >= 5x: %s)\n",
                iss_ratio, iss_ratio >= 5.0 ? "met" : "NOT MET");
}

}  // namespace

int main() {
    std::printf("== §5.1 speed: OSM SARM model vs hand-coded cycle simulator ==\n\n");
    std::printf("%-12s %14s %14s %8s\n", "workload", "OSM kcyc/s", "hand kcyc/s", "ratio");

    const sim::engine_config cfg;
    double osm_cycles = 0;
    double osm_secs = 0;
    double hw_cycles = 0;
    double hw_secs = 0;
    for (auto& w : workloads::mediabench_suite(2)) {
        // Untimed warmup runs: cold-start host effects stay out of the
        // timed region (steady-state kcyc/s reported).
        measure("sarm", cfg, w.image);
        measure("hw", cfg, w.image);
        auto osm_run = measure("sarm", cfg, w.image);
        auto hw_run = measure("hw", cfg, w.image);

        const double k1 =
            static_cast<double>(osm_run.eng->cycles()) / osm_run.secs / 1e3;
        const double k2 =
            static_cast<double>(hw_run.eng->cycles()) / hw_run.secs / 1e3;
        std::printf("%-12s %14.0f %14.0f %7.2fx\n", w.name.c_str(), k1, k2, k1 / k2);
        osm_cycles += static_cast<double>(osm_run.eng->cycles());
        osm_secs += osm_run.secs;
        hw_cycles += static_cast<double>(hw_run.eng->cycles());
        hw_secs += hw_run.secs;
    }
    const double k_osm = osm_cycles / osm_secs / 1e3;
    const double k_hw = hw_cycles / hw_secs / 1e3;
    std::printf("\naverage: OSM %.0f kcyc/s, hand-coded %.0f kcyc/s (OSM/hand = %.2fx)\n",
                k_osm, k_hw, k_osm / k_hw);
    std::printf("paper:   OSM 650 kcyc/s, SimpleScalar 550 kcyc/s (1.18x), P-III 1.1GHz\n");

    decode_cache_ablation();
    block_cache_ablation();
    return 0;
}
