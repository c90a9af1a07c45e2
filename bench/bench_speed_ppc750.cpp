// Reproduces the paper §5.2 throughput comparison: "The average speed of
// the OSM model is 250k cycles/sec on a P-III 1.1GHz desktop, 4 times that
// of the SystemC model."
//
// Substitution (DESIGN.md): the SystemC model's role is played by the
// port/wire discrete-event model of the same superscalar (modules connected
// by signals, evaluated through delta cycles).  The headline shape — the
// declarative OSM model outruns the hardware-centric port model — is what
// this bench checks; the measured delta-cycle count per simulated cycle
// quantifies the DE machinery overhead the paper blames.
//
// Engines come from the sim::engine registry (hot loop unchanged: one
// engine::run() per workload); the per-cycle DE overhead is read from the
// port engine's uniform stats_report.  Per-engine throughput and the
// decode-/block-cache ablations are osm-bench's job (tools/osm_bench.cpp).
#include <chrono>
#include <cstdio>
#include <string>

#include "sim/registry.hpp"
#include "workloads/workloads.hpp"

using namespace osm;

namespace {

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

}  // namespace

int main() {
    std::printf("== §5.2 speed: OSM P750 model vs port/wire DE model ==\n\n");
    std::printf("%-14s %14s %14s %8s %12s\n", "workload", "OSM kcyc/s",
                "port kcyc/s", "ratio", "deltas/cyc");

    const sim::engine_config cfg;
    double osm_cycles = 0;
    double osm_secs = 0;
    double port_cycles = 0;
    double port_secs = 0;
    for (auto& w : workloads::mixed_suite(2)) {
        // Untimed warmup runs: cold-start host effects stay out of the
        // timed region (steady-state kcyc/s reported).
        measure("p750", cfg, w.image);
        measure("port", cfg, w.image);
        auto osm_run = measure("p750", cfg, w.image);
        auto port_run = measure("port", cfg, w.image);

        const double k1 =
            static_cast<double>(osm_run.eng->cycles()) / osm_run.secs / 1e3;
        const double k2 =
            static_cast<double>(port_run.eng->cycles()) / port_run.secs / 1e3;
        const auto rep = port_run.eng->stats_report();
        const double deltas = static_cast<double>(
            std::get<std::uint64_t>(rep.at("de", "delta_cycles")));
        std::printf("%-14s %14.0f %14.0f %7.2fx %12.1f\n", w.name.c_str(), k1, k2,
                    k1 / k2,
                    deltas / static_cast<double>(port_run.eng->cycles()));
        osm_cycles += static_cast<double>(osm_run.eng->cycles());
        osm_secs += osm_run.secs;
        port_cycles += static_cast<double>(port_run.eng->cycles());
        port_secs += port_run.secs;
    }
    const double k_osm = osm_cycles / osm_secs / 1e3;
    const double k_port = port_cycles / port_secs / 1e3;
    std::printf("\naverage: OSM %.0f kcyc/s, port model %.0f kcyc/s (OSM/port = %.2fx)\n",
                k_osm, k_port, k_osm / k_port);
    std::printf("paper:   OSM 250 kcyc/s = 4x the SystemC model, P-III 1.1GHz\n");
    std::printf("shape check (OSM faster than port model): %s\n",
                k_osm > k_port ? "holds" : "DOES NOT HOLD");

    return k_osm > k_port ? 0 : 1;
}
