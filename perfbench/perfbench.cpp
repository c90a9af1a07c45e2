// osm-perfbench: the repository benchmark driver.
//
//   osm-perfbench --workload pipeline|functional|campaign --seed N
//                 --seconds S --trace 0|1 --report FILE [--spans FILE]
//
// Drives every registered engine only through its public interfaces
// (sim::engine_registry / sim::engine, workloads::*, the ppc32 program
// generator, serve::run_campaign_service) and measures simulation speed as
// the median of many short, fixed-size reps, each scaled to a nominal host
// speed by a probe run across it (see host_meter).  A round runs one rep of
// every row (engine or campaign); rounds repeat until --seconds of measuring
// have passed, so host drift hits every row alike.  Every rep's outputs are
// checked against the warm-up pass and against the functional reference.
//
// The full result (metrics with min/max/sample counts, host facts, failures)
// is written to --report as JSON; perfbench/run.py turns it into the
// benchmark's one-line result.  With --trace 1 each round also runs a traced
// rep of every row: in-memory spans around the calls into each layer, plus a
// per-cycle split of the OSM engines' kernel into the operation layer
// (director control step) and the hardware layer, written to --spans.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/sim_kernel.hpp"
#include "fuzz/campaign.hpp"
#include "host_probe.hpp"
#include "ppc32/randprog.hpp"
#include "serve/campaign_service.hpp"
#include "sim/diff_runner.hpp"
#include "sim/registry.hpp"
#include "workloads/randprog.hpp"
#include "workloads/workloads.hpp"

using namespace osm;

namespace {

using bench_clock = std::chrono::steady_clock;

double secs_between(bench_clock::time_point a, bench_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Budget for runs that go to completion: far above any program here, so
/// hitting it means the engine never halted.
constexpr std::uint64_t run_to_halt = 1'000'000'000ull;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Samples of one timed quantity, each with the host-probe rate measured
/// across it (see host_probe.hpp).
struct timings {
    explicit timings(double s = 1.0) : sensitivity(s) {}

    /// How steeply this quantity's speed follows the probe when other load
    /// shares the host: the slope of log(speed) against log(probe rate).
    double sensitivity;
    std::vector<double> value, host;

    void add(double v, double h) {
        value.push_back(v);
        host.push_back(h);
    }
    /// The samples scaled to the nominal host speed: a rate is multiplied,
    /// a duration divided, by (nominal / probe) ^ sensitivity.
    std::vector<double> at_nominal(bool is_rate) const {
        std::vector<double> out;
        for (std::size_t i = 0; i < value.size(); ++i) {
            const double speed =
                std::pow(perfbench::nominal_probe_rate / host[i], sensitivity);
            out.push_back(is_rate ? value[i] * speed : value[i] / speed);
        }
        return out;
    }
    /// The sensitivity these samples show (least-squares slope of
    /// log(speed) on log(probe)), to re-check the constant against.
    double fitted_sensitivity(bool is_rate) const {
        const std::size_t n = value.size();
        double mx = 0, my = 0;
        for (std::size_t i = 0; i < n; ++i) {
            mx += std::log(host[i]) / static_cast<double>(n);
            my += std::log(value[i]) / static_cast<double>(n);
        }
        double sxx = 0, sxy = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double dx = std::log(host[i]) - mx;
            sxx += dx * dx;
            sxy += dx * (std::log(value[i]) - my);
        }
        const double slope = sxx > 0 ? sxy / sxx : 0.0;
        return is_rate ? slope : -slope;
    }
};

/// A report counter, or 0 when the engine's report lacks it.
double counter(const stats::report& r, const char* section, const char* key) {
    try {
        const auto& v = r.at(section, key);
        if (const auto* u = std::get_if<std::uint64_t>(&v)) return static_cast<double>(*u);
        if (const auto* d = std::get_if<double>(&v)) return *d;
    } catch (const std::out_of_range&) {
    }
    return 0.0;
}

bool has_counter(const stats::report& r, const char* section, const char* key) {
    try {
        (void)r.at(section, key);
        return true;
    } catch (const std::out_of_range&) {
        return false;
    }
}

/// Samples the host probe across each timed rep: at its start and end, and
/// between its program runs at least `spacing` apart, so the reading covers
/// the same stretch of host time as the rep.  The probe runs outside every
/// timed region.
class host_meter {
public:
    host_meter() { sample(); }

    /// Between two program runs of a rep.
    void tick() {
        if (secs_between(last_, bench_clock::now()) >= spacing) sample();
    }
    /// Ends a rep: the geometric mean of its samples, boundaries included.
    /// The closing sample also opens the next rep.
    double close_rep() {
        sample();
        double log_sum = 0;
        for (const double h : window_) log_sum += std::log(h);
        const double host = std::exp(log_sum / static_cast<double>(window_.size()));
        window_ = {window_.back()};
        return host;
    }

private:
    static constexpr double spacing = 0.010;

    void sample() {
        window_.push_back(perfbench::host_probe_rate());
        last_ = bench_clock::now();
    }

    std::vector<double> window_;
    bench_clock::time_point last_{};
};

// ---- tracing ---------------------------------------------------------------

/// In-memory spans from the benchmark's own calls into each layer; written
/// out once at the end of a traced run.
class span_log {
public:
    int open(const std::string& name, const std::string& row, int parent = -1) {
        spans_.push_back({name, row, bench_clock::now(), {}, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    double close(int id) {
        auto& s = spans_[static_cast<std::size_t>(id)];
        s.end = bench_clock::now();
        return secs_between(s.start, s.end);
    }
    void write(const std::string& path) const {
        std::ofstream out(path);
        out << "{\"schema\": \"osm-perfbench-spans-1\", \"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"row\": \"" << s.row << "\", \"parent\": " << s.parent
                << ", \"start_us\": " << secs_between(origin_, s.start) * 1e6
                << ", \"end_us\": " << secs_between(origin_, s.end) * 1e6 << "}";
        }
        out << "\n]}\n";
    }

private:
    struct span {
        std::string name, row;
        bench_clock::time_point start, end;
        int parent;
    };
    bench_clock::time_point origin_ = bench_clock::now();
    std::vector<span> spans_;
};

/// Per-cycle split of an OSM engine's kernel loop, summed over a run.  The
/// benchmark appends one on_cycle hook (the last thing before the director's
/// control step) and one on_cycle_end hook (after it and the model's own
/// end-of-cycle hooks); the interval between them is the operation layer,
/// the rest of the cycle (DE drain plus the model's cycle hooks) is the
/// hardware layer.
struct layer_split {
    bench_clock::time_point step_start{}, step_end{};
    bool in_run = false;
    double control_s = 0, hw_s = 0;

    layer_split() = default;
    layer_split(const layer_split&) = delete;  // the kernel's hooks hold its address
    layer_split& operator=(const layer_split&) = delete;

    void attach(core::sim_kernel& k) {
        k.on_cycle([this] {
            const auto now = bench_clock::now();
            if (in_run) hw_s += secs_between(step_end, now);
            step_start = now;
        });
        k.on_cycle_end([this] {
            step_end = bench_clock::now();
            control_s += secs_between(step_start, step_end);
            in_run = true;
        });
    }
};

// ---- failures --------------------------------------------------------------

struct tally {
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> messages;

    void fail(const std::string& what) {
        ++failed;
        if (messages.size() < 20) messages.push_back(what);
    }
};

// ---- engine rows -----------------------------------------------------------

struct program {
    std::string name;
    isa::program_image image;
};

/// One program run's checked outputs.
struct outcome {
    sim::end_state state;
    std::uint64_t cycles = 0;
    bool ran = false;
};

/// One end-to-end engine metric: an engine, its programs and the fixed size
/// of a rep.  A rep makes `passes` passes over the programs; each program
/// runs on a freshly constructed engine for `window` cycles (instructions
/// for functional engines), or to halt when `window` is 0.
struct engine_row {
    std::string name;      ///< metric prefix ("sarm", "mh-iss-tso4", ...)
    std::string engine;    ///< registry key
    sim::engine_config cfg;
    bool timing = true;    ///< rate in simulated cycles, else retired insts
    const std::vector<program>* programs = nullptr;
    std::uint64_t window = 0;
    unsigned passes = 1;
    std::string reference; ///< functional engine whose state this row must match
    std::string same_cycles_as;  ///< row that must be cycle-exact with this one

    bool executes_fp = true;           ///< engine has FP registers to compare
    std::vector<bool> runs_program;    ///< per program: engine can execute it
    std::vector<outcome> first;        ///< per program, from the warm-up pass
    std::map<std::string, double> sums;  ///< report counters summed over one pass
    timings rate, secs, traced_rate, traced_secs;
    double traced_run_s = 0, traced_control_s = 0, traced_hw_s = 0;

    const char* unit() const { return timing ? "cycles/s" : "insts/s"; }
    std::string metric() const { return name + (timing ? ".cycles_per_s" : ".insts_per_s"); }
};

/// Host seconds for each layer call, accumulated over traced reps.
struct call_times {
    double create = 0, load = 0, run = 0, report = 0;
    std::vector<double> report_call_s;
};

/// Host sensitivity of the campaign row.  Its two worker threads make its
/// reps noisier than the engine rows', so the within-run slope (0.3-0.7, at
/// correlations of 0.3-0.6) is diluted; 1.25 is the exponent that levelled
/// its medians best between runs, over six sets of five to ten runs.
constexpr double campaign_sensitivity = 1.25;
/// Host sensitivity of the set-up timings: the slope pooled over all rows.
constexpr double setup_sensitivity = 1.3;

struct campaign_row {
    serve::serve_options opt;
    std::string first_summary;
    timings rate{campaign_sensitivity}, secs{campaign_sensitivity},
        traced_rate{campaign_sensitivity}, traced_secs{campaign_sensitivity};
    double worker_cpu_ms = 0, worker_wall_ms = 0, steals = 0, jobs = 0;
    double cache_hits = 0, cache_lookups = 0;
    double engine_runs = 0, programs = 0, instructions = 0;
};

/// One timed rep: its rate (units per host second) and its host seconds.
struct rep_result {
    double rate = 0, secs = 0;
};

// ---- programs ---------------------------------------------------------------

struct program_sets {
    std::vector<program> vr32, mh4, ppc;
};

/// Seeded program sets.  pipeline: the fixed mixed suite plus a long-loop
/// random program; functional: straight-line programs with many blocks;
/// campaign: the short quick-matrix programs a differential campaign runs.
program_sets generate(const std::string& workload, std::uint64_t seed) {
    program_sets g;
    auto vr32_rand = [&](unsigned i, workloads::randprog_options o) {
        o.seed = mix_seed(seed, 100 + i);
        g.vr32.push_back({"rand" + std::to_string(i), workloads::make_random_program(o)});
    };
    auto mh4_rand = [&](unsigned i, workloads::randprog_options o) {
        o.seed = mix_seed(seed, 200 + i);
        o.harts = 4;
        o.shared_contention = true;
        g.mh4.push_back({"mh4-" + std::to_string(i), workloads::make_random_program(o)});
    };
    auto ppc_rand = [&](unsigned i, ppc32::randprog_options o) {
        o.seed = mix_seed(seed, 300 + i);
        g.ppc.push_back({"ppc" + std::to_string(i), ppc32::make_random_program(o)});
    };

    if (workload == "pipeline") {
        for (auto& w : workloads::mixed_suite(1)) g.vr32.push_back({w.name, std::move(w.image)});
        workloads::randprog_options o;
        o.blocks = 12;
        o.loop_count = 2000;
        vr32_rand(0, o);
        workloads::randprog_options m;
        m.blocks = 24;
        m.loop_count = 300;
        for (unsigned i = 0; i < 3; ++i) mh4_rand(i, m);
        ppc32::randprog_options p;
        p.blocks = 10;
        p.block_len = 10;
        p.loop_count = 250;
        // Many short programs: ppc32-750's IPC, and so its cycle rate,
        // varies with each random program's mix.
        for (unsigned i = 0; i < 64; ++i) ppc_rand(i, p);
    } else if (workload == "functional") {
        workloads::randprog_options o;
        o.blocks = 400;
        o.block_len = 12;
        o.loop_count = 2;
        for (unsigned i = 0; i < 6; ++i) vr32_rand(i, o);
        workloads::randprog_options m = o;
        m.blocks = 200;
        for (unsigned i = 0; i < 3; ++i) mh4_rand(i, m);
        ppc32::randprog_options p;
        p.blocks = 300;
        p.block_len = 10;
        p.loop_count = 2;
        for (unsigned i = 0; i < 6; ++i) ppc_rand(i, p);
    } else {
        const auto& matrix = fuzz::feature_matrix(true);
        for (unsigned i = 0; i < 16; ++i) vr32_rand(i, matrix[i % matrix.size()].options);
        for (unsigned i = 0; i < 8; ++i) mh4_rand(i, {});
        for (unsigned i = 0; i < 16; ++i) ppc_rand(i, {});
    }
    return g;
}

/// Rep sizes: (window, passes) per row and workload, fixed so every rep is
/// the same work on every host.  Rows whose rates the paper compares
/// (sarm/hw, p750/port) and the cycle-exact pair sarm/adl share a window.
struct sizing {
    std::uint64_t window;
    unsigned passes;
};

sizing size_of(const std::string& workload, const std::string& row) {
    static const std::map<std::string, std::map<std::string, sizing>> table = {
        {"pipeline",
         {{"sarm", {40'000, 1}}, {"adl", {40'000, 1}}, {"hw", {40'000, 16}},
          {"smt", {40'000, 2}}, {"p750", {12'000, 1}}, {"port", {12'000, 1}},
          {"ppc32-750", {0, 4}}, {"iss", {0, 5}}, {"mh-iss", {100'000, 1}},
          {"mh-iss-tso4", {0, 1}}, {"ppc32", {0, 8}}}},
        {"functional",
         {{"sarm", {0, 1}}, {"adl", {0, 1}}, {"hw", {0, 4}}, {"smt", {0, 2}},
          {"p750", {0, 1}}, {"port", {0, 1}}, {"ppc32-750", {0, 2}}, {"iss", {0, 20}},
          {"mh-iss", {0, 2}}, {"mh-iss-tso4", {0, 2}}, {"ppc32", {0, 8}}}},
        {"campaign",
         {{"sarm", {0, 1}}, {"adl", {0, 1}}, {"hw", {0, 1}}, {"smt", {0, 1}},
          {"p750", {0, 1}}, {"port", {0, 1}}, {"ppc32-750", {0, 1}}, {"iss", {0, 2}},
          {"mh-iss", {0, 1}}, {"mh-iss-tso4", {0, 1}}, {"ppc32", {0, 2}}}},
    };
    return table.at(workload).at(row);
}

/// Seeds per campaign rep.
constexpr std::uint64_t campaign_seeds = 100;

/// The engine rows, in round order.  Rows keep pointers into `sets`.
std::vector<engine_row> make_rows(const std::string& workload, const program_sets& sets,
                                  std::uint64_t seed) {
    struct spec {
        const char* name;
        const char* engine;
        bool timing;
        const std::vector<program>* programs;
        const char* reference;
        const char* same_cycles_as;
        double sensitivity;  ///< see timings::sensitivity
    };
    // Sensitivities: the slope of log(rate) on log(probe rate) over the reps
    // of five runs of each workload on the reference host, averaged over the
    // workloads (the per-workload slopes stayed within 0.2 of it).
    const spec specs[] = {
        {"sarm", "sarm", true, &sets.vr32, "iss", "", 1.65},
        {"adl", "adl", true, &sets.vr32, "iss", "sarm", 1.6},
        {"smt", "smt", true, &sets.vr32, "iss", "", 1.55},
        {"p750", "p750", true, &sets.vr32, "iss", "", 1.7},
        {"ppc32-750", "ppc32-750", true, &sets.ppc, "ppc32", "", 1.3},
        {"hw", "hw", true, &sets.vr32, "iss", "", 1.6},
        {"port", "port", true, &sets.vr32, "iss", "", 1.35},
        {"iss", "iss", false, &sets.vr32, "", "", 1.35},
        {"mh-iss", "mh-iss", false, &sets.vr32, "iss", "", 1.2},
        {"mh-iss-tso4", "mh-iss", false, &sets.mh4, "", "", 1.1},
        {"ppc32", "ppc32", false, &sets.ppc, "", "", 1.2},
    };
    std::vector<engine_row> rows;
    for (const auto& s : specs) {
        engine_row r;
        r.name = s.name;
        r.engine = s.engine;
        r.timing = s.timing;
        r.programs = s.programs;
        r.reference = s.reference;
        r.same_cycles_as = s.same_cycles_as;
        for (auto* t : {&r.rate, &r.secs, &r.traced_rate, &r.traced_secs})
            t->sensitivity = s.sensitivity;
        if (r.name == "mh-iss-tso4") {
            r.cfg.harts = 4;
            r.cfg.memory_model = mem::memory_model::tso;
            r.cfg.sched_seed = mix_seed(seed, 400);
        }
        const auto sz = size_of(workload, r.name);
        r.window = sz.window;
        r.passes = sz.passes;
        rows.push_back(std::move(r));
    }
    return rows;
}

// ---- running ---------------------------------------------------------------

class bench {
public:
    bench(std::string workload, std::uint64_t seed, double seconds, bool trace)
        : workload_(std::move(workload)), seed_(seed), seconds_(seconds), trace_(trace),
          time_construction_(workload_ == "campaign") {}

    int run(const std::string& report_path, const std::string& spans_path);

private:
    void setup();
    void warm_up();
    std::optional<rep_result> engine_rep(engine_row& r, bool traced);
    std::optional<rep_result> campaign_rep(bool traced);
    void measure();
    outcome run_program(engine_row& r, std::size_t i, bool traced, double& timed_s,
                        int parent, bool collect);
    void check(engine_row& r, std::size_t i, const outcome& o);
    engine_row* find_row(const std::string& name);
    void write_report(const std::string& path);

    std::string workload_;
    std::uint64_t seed_;
    double seconds_;
    bool trace_;
    bool time_construction_;  ///< short-run regime: construct + load are timed too
    program_sets sets_;
    std::vector<engine_row> rows_;
    campaign_row camp_;
    tally tally_;
    span_log spans_;
    call_times calls_;
    timings setup_s_{setup_sensitivity}, generate_s_{setup_sensitivity},
        construct_s_{setup_sensitivity}, load_s_{setup_sensitivity};
    host_meter meter_;
    unsigned rounds_ = 0;
};

engine_row* bench::find_row(const std::string& name) {
    for (auto& r : rows_)
        if (r.name == name) return &r;
    return nullptr;
}

/// Set-up, timed as a whole: generate and assemble every program, then
/// construct and load each engine once.  Repeated by the caller; the last
/// repetition's programs are the ones measured.
void bench::setup() {
    const auto t0 = bench_clock::now();
    const int gen_span = trace_ ? spans_.open("generate", "setup") : -1;
    sets_ = generate(workload_, seed_);
    const auto t1 = bench_clock::now();
    if (gen_span >= 0) spans_.close(gen_span);
    rows_ = make_rows(workload_, sets_, seed_);
    double construct = 0, load = 0;
    for (auto& r : rows_) {
        const auto c0 = bench_clock::now();
        auto eng = sim::engine_registry::instance().create(r.engine, r.cfg);
        const auto c1 = bench_clock::now();
        eng->load(r.programs->front().image);
        const auto c2 = bench_clock::now();
        construct += secs_between(c0, c1);
        load += secs_between(c1, c2);
        // The same skips as the differential harness; the opcode scans only
        // understand VR32 images.
        const bool vr32 = eng->isa() != "ppc32";
        r.executes_fp = eng->executes_fp();
        r.runs_program.clear();
        for (const auto& p : *r.programs) {
            r.runs_program.push_back(
                !vr32 || ((eng->executes_fp() || !sim::program_uses_fp(p.image)) &&
                          (eng->executes_amo() || !sim::program_uses_atomics(p.image))));
        }
    }
    const auto t2 = bench_clock::now();
    const double host = meter_.close_rep();
    setup_s_.add(secs_between(t0, t2), host);
    generate_s_.add(secs_between(t0, t1), host);
    construct_s_.add(construct, host);
    load_s_.add(load, host);

    camp_.opt = {};
    camp_.opt.campaign.seed_lo = 1 + mix_seed(seed_, 500) % 1'000'000'000ull;
    camp_.opt.campaign.seed_hi = camp_.opt.campaign.seed_lo + campaign_seeds - 1;
    camp_.opt.campaign.quick = true;
    camp_.opt.campaign.minimize = false;
    camp_.opt.jobs = 2;
}

outcome bench::run_program(engine_row& r, std::size_t i, bool traced, double& timed_s,
                           int parent, bool collect) {
    const auto& img = (*r.programs)[i].image;
    outcome o;
    layer_split split;  // declared before the engine, whose kernel holds hooks into it
    int sp = traced ? spans_.open("create", r.name, parent) : -1;
    const auto t0 = bench_clock::now();
    auto eng = sim::engine_registry::instance().create(r.engine, r.cfg);
    if (sp >= 0) calls_.create += spans_.close(sp);
    sp = traced ? spans_.open("load", r.name, parent) : -1;
    eng->load(img);
    if (sp >= 0) calls_.load += spans_.close(sp);

    if (traced && eng->kernel() != nullptr) split.attach(*eng->kernel());
    sp = traced ? spans_.open("run", r.name, parent) : -1;
    const auto t3 = bench_clock::now();
    eng->run(r.window == 0 ? run_to_halt : r.window);
    const auto t4 = bench_clock::now();
    if (sp >= 0) {
        const double s = spans_.close(sp);
        calls_.run += s;
        r.traced_run_s += s;
        r.traced_control_s += split.control_s;
        r.traced_hw_s += split.hw_s;
    }
    timed_s += time_construction_ ? secs_between(t0, t4) : secs_between(t3, t4);

    if (traced || collect) {
        sp = traced ? spans_.open("stats_report", r.name, parent) : -1;
        const auto rep = eng->stats_report();
        if (sp >= 0) {
            const double s = spans_.close(sp);
            calls_.report += s;
            calls_.report_call_s.push_back(s);
        }
        if (collect) {
            static const std::vector<std::pair<const char*, const char*>> keys = {
                {"director", "conditions_evaluated"}, {"director", "primitives_evaluated"},
                {"director", "transitions"},          {"director", "control_steps"},
                {"decode_cache", "hits"},             {"decode_cache", "misses"},
                {"block_cache", "hits"},              {"block_cache", "misses"},
                {"block_cache", "blocks_built"},      {"block_cache", "block_insts"},
                {"de", "delta_cycles"},               {"run", "cycles"},
                {"run", "retired"},
            };
            for (const auto& [sec, key] : keys) {
                r.sums[std::string(sec) + "." + key] += counter(rep, sec, key);
                if (has_counter(rep, sec, key)) r.sums["has." + std::string(sec)] = 1;
            }
            for (const char* cache : {"icache", "dcache"}) {
                const double acc = counter(rep, cache, "accesses");
                r.sums[std::string(cache) + ".accesses"] += acc;
                r.sums[std::string(cache) + ".hits"] += acc * counter(rep, cache, "hit_ratio");
            }
        }
    }
    o.state = sim::capture_end_state(*eng);
    o.cycles = eng->cycles();
    o.ran = true;
    return o;
}

/// Compare one program run against the warm-up pass, the functional
/// reference at the same retirement count, and the cycle-exact partner row.
void bench::check(engine_row& r, std::size_t i, const outcome& o) {
    const std::string where = r.name + " on " + (*r.programs)[i].name;
    if (r.window == 0 && !o.state.halted) {
        tally_.fail(where + ": did not halt within the budget");
        return;
    }
    const outcome& first = r.first[i];
    if (!first.ran) return;  // this is the warm-up pass itself
    if (o.cycles != first.cycles || o.state.retired != first.state.retired ||
        o.state.console != first.state.console)
        tally_.fail(where + ": rep differs from the first rep (cycles " +
                    std::to_string(o.cycles) + " vs " + std::to_string(first.cycles) +
                    ", retired " + std::to_string(o.state.retired) + " vs " +
                    std::to_string(first.state.retired) + ")");
    else if (auto d = sim::compare_end_states(r.name, r.name, first.state, o.state, true))
        tally_.fail(where + ": rep differs from the first rep: " + d->to_string());
}

void bench::warm_up() {
    // Every row's first pass, untimed: its outputs are what every later rep
    // must reproduce, and its report counters are the per-layer counts.
    for (auto& r : rows_) {
        r.first.assign(r.programs->size(), outcome{});
        std::vector<outcome> got(r.programs->size());
        for (std::size_t i = 0; i < r.programs->size(); ++i) {
            if (!r.runs_program[i]) continue;
            ++tally_.attempted;
            double ignored = 0;
            try {
                got[i] = run_program(r, i, false, ignored, -1, true);
                check(r, i, got[i]);
            } catch (const std::exception& e) {
                tally_.fail(r.name + " on " + (*r.programs)[i].name + ": " + e.what());
            }
        }
        r.first = std::move(got);
    }
    // Architectural cross-checks: each row against its functional reference
    // after the same number of retired instructions, and adl against sarm.
    for (auto& r : rows_) {
        const engine_row* partner = r.same_cycles_as.empty() ? nullptr : find_row(r.same_cycles_as);
        for (std::size_t i = 0; i < r.programs->size(); ++i) {
            const outcome& o = r.first[i];
            if (!o.ran) continue;
            const std::string where = r.name + " on " + (*r.programs)[i].name;
            if (!r.reference.empty()) {
                try {
                    auto ref = sim::engine_registry::instance().create(r.reference);
                    ref->load((*r.programs)[i].image);
                    ref->run(o.state.retired);
                    const auto want = sim::capture_end_state(*ref);
                    if (auto d = sim::compare_end_states(r.reference, r.name, want, o.state,
                                                         r.executes_fp))
                        tally_.fail(where + ": " + d->to_string());
                } catch (const std::exception& e) {
                    tally_.fail(where + ": reference run failed: " + e.what());
                }
            }
            if (partner != nullptr && partner->first[i].ran &&
                (partner->first[i].cycles != o.cycles ||
                 partner->first[i].state.retired != o.state.retired))
                tally_.fail(where + ": not cycle-exact with " + partner->name);
        }
    }
    (void)campaign_rep(false);
}

std::optional<rep_result> bench::engine_rep(engine_row& r, bool traced) {
    const int rep_span = traced ? spans_.open("rep", r.name) : -1;
    double timed = 0, units = 0;
    bool ok = true;
    for (unsigned pass = 0; pass < r.passes; ++pass) {
        for (std::size_t i = 0; i < r.programs->size(); ++i) {
            if (!r.runs_program[i]) continue;
            ++tally_.attempted;
            try {
                const auto o = run_program(r, i, traced, timed, rep_span, false);
                meter_.tick();
                check(r, i, o);
                units += static_cast<double>(r.timing ? o.cycles : o.state.retired);
            } catch (const std::exception& e) {
                ok = false;
                tally_.fail(r.name + " on " + (*r.programs)[i].name + ": " + e.what());
            }
        }
    }
    if (rep_span >= 0) spans_.close(rep_span);
    if (!ok || timed <= 0) return std::nullopt;
    return rep_result{units / timed, timed};
}

std::optional<rep_result> bench::campaign_rep(bool traced) {
    ++tally_.attempted;
    const int sp = traced ? spans_.open("run_campaign_service", "campaign") : -1;
    const auto t0 = bench_clock::now();
    serve::serve_result res;
    try {
        res = serve::run_campaign_service(camp_.opt);
    } catch (const std::exception& e) {
        if (sp >= 0) spans_.close(sp);
        tally_.fail(std::string("campaign: ") + e.what());
        return std::nullopt;
    }
    const double s = secs_between(t0, bench_clock::now());
    if (sp >= 0) spans_.close(sp);
    const std::string summary = res.campaign.summary().to_json();
    if (!res.campaign.findings.empty()) {
        tally_.fail("campaign: " + std::to_string(res.campaign.findings.size()) +
                    " divergences, first: " + res.campaign.findings.front().first.to_string());
        return std::nullopt;
    }
    if (!res.timeouts.empty()) {
        tally_.fail("campaign: " + std::to_string(res.timeouts.size()) + " jobs timed out");
        return std::nullopt;
    }
    if (camp_.first_summary.empty()) {
        // The warm-up rep: reference summary and the fuzz/serve work counts.
        camp_.first_summary = summary;
        camp_.engine_runs = static_cast<double>(res.campaign.engine_runs);
        camp_.programs = static_cast<double>(res.campaign.programs);
        camp_.instructions = static_cast<double>(res.campaign.instructions);
        return std::nullopt;
    }
    if (summary != camp_.first_summary) {
        tally_.fail("campaign: summary differs from the first rep");
        return std::nullopt;
    }
    if (traced) {
        for (const auto& w : res.workers) {
            camp_.worker_cpu_ms += w.cpu_ms;
            camp_.steals += static_cast<double>(w.steals);
        }
        camp_.worker_wall_ms += s * 1e3 * static_cast<double>(res.workers.size());
        camp_.jobs += static_cast<double>(res.total_jobs);
        camp_.cache_hits += static_cast<double>(res.cache.hits);
        camp_.cache_lookups += static_cast<double>(res.cache.lookups);
    }
    return rep_result{static_cast<double>(campaign_seeds) / s, s};
}

// ---- report ----------------------------------------------------------------

struct metric {
    double value = 0;
    std::string unit;
    std::vector<double> samples;  ///< at nominal host speed; empty for counts
    const timings* raw = nullptr; ///< the measured samples and host probes
    bool is_rate = false;
};

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                auto v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    }
    return "unknown";
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

void bench::write_report(const std::string& path) {
    std::map<std::string, metric> m;
    auto put = [&](const std::string& name, double v, const char* unit) {
        m[name] = {v, unit, {}, nullptr, false};
    };
    auto put_timed = [&](const std::string& name, const timings& t, bool is_rate,
                         const char* unit) {
        auto samples = t.at_nominal(is_rate);
        const double v = median(samples);
        m[name] = {v, unit, std::move(samples), &t, is_rate};
        return v;
    };

    // End to end.
    for (auto& r : rows_) put_timed(r.metric(), r.rate, true, r.unit());
    put_timed("campaign.seeds_per_s", camp_.rate, true, "seeds/s");
    put_timed("setup_s", setup_s_, false, "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");

    // Per layer: exact work counts from the warm-up pass.
    for (auto& r : rows_) {
        auto& s = r.sums;
        const double cyc = s["run.cycles"], ret = s["run.retired"];
        if (s["has.director"] != 0) {
            const std::string p = "core." + r.name + ".";
            put(p + "conditions_per_cycle", ratio(s["director.conditions_evaluated"], cyc),
                "count/cycle");
            put(p + "primitives_per_cycle", ratio(s["director.primitives_evaluated"], cyc),
                "count/cycle");
            put(p + "transitions_per_cycle", ratio(s["director.transitions"], cyc), "count/cycle");
            put(p + "conditions_per_transition",
                ratio(s["director.conditions_evaluated"], s["director.transitions"]),
                "count/transition");
        }
        if (s["has.de"] != 0)
            put("de." + r.name + ".delta_cycles_per_cycle", ratio(s["de.delta_cycles"], cyc),
                "count/cycle");
        if (s["has.decode_cache"] != 0) {
            const double lookups = s["decode_cache.hits"] + s["decode_cache.misses"];
            put("isa." + r.name + ".decode_lookups_per_inst", ratio(lookups, ret), "count/inst");
            put("isa." + r.name + ".decode_hit_ratio", ratio(s["decode_cache.hits"], lookups),
                "ratio");
        }
        if (s["has.block_cache"] != 0) {
            const double entries = s["block_cache.hits"] + s["block_cache.misses"];
            put("isa." + r.name + ".block_hit_ratio", ratio(s["block_cache.hits"], entries),
                "ratio");
            put("isa." + r.name + ".insts_per_block_entry",
                ratio(s["block_cache.block_insts"], entries), "count/entry");
            put("isa." + r.name + ".blocks_built", s["block_cache.blocks_built"], "count");
        }
        for (const char* cache : {"icache", "dcache"}) {
            const double acc = s[std::string(cache) + ".accesses"];
            if (acc == 0) continue;
            const std::string p = "mem." + r.name + "." + cache;
            put(p + "_accesses_per_cycle", ratio(acc, cyc), "count/cycle");
            put(p + "_hit_ratio", ratio(s[std::string(cache) + ".hits"], acc), "ratio");
        }
        if (r.timing) put("model." + r.name + ".ipc", ratio(ret, cyc), "inst/cycle");
    }
    // Cycles per instruction of the OSM model against its reference over the
    // same programs (paper Table 1 for SARM; the port model for P750), as an
    // absolute relative difference.
    auto cpi_error = [&](const char* model, const char* ref) {
        auto* a = find_row(model);
        auto* b = find_row(ref);
        const double cpi_a = ratio(a->sums["run.cycles"], a->sums["run.retired"]);
        const double cpi_b = ratio(b->sums["run.cycles"], b->sums["run.retired"]);
        return std::abs(ratio(cpi_a - cpi_b, cpi_b));
    };
    put("model.sarm.cycle_error_vs_hw", cpi_error("sarm", "hw"), "share");
    put("model.p750.cycle_error_vs_port", cpi_error("p750", "port"), "share");
    auto speed = [&](const char* row) { return m.at(find_row(row)->metric()).value; };
    put("paper.s51_sarm_speed_vs_hw", ratio(speed("sarm"), speed("hw")), "x");
    put("paper.s52_p750_speed_vs_port", ratio(speed("p750"), speed("port")), "x");
    put_timed("workloads.generate_s", generate_s_, false, "s");
    put_timed("sim.construct_s", construct_s_, false, "s");
    put_timed("sim.load_s", load_s_, false, "s");
    put("fuzz.engine_runs_per_seed", ratio(camp_.engine_runs, camp_.programs), "count/seed");
    put("fuzz.insts_per_engine_run", ratio(camp_.instructions, camp_.engine_runs), "count/run");

    if (trace_) {
        for (auto& r : rows_) {
            if (r.traced_control_s == 0) continue;
            put("core." + r.name + ".control_step_share",
                ratio(r.traced_control_s, r.traced_run_s), "share");
            put("de." + r.name + ".hw_layer_share", ratio(r.traced_hw_s, r.traced_run_s), "share");
        }
        put("sim.report_s", median(calls_.report_call_s), "s");
        put("sim.run_share",
            ratio(calls_.run, calls_.create + calls_.load + calls_.run + calls_.report), "share");
        put("serve.worker_busy_share", ratio(camp_.worker_cpu_ms, camp_.worker_wall_ms), "share");
        put("serve.steals_per_job", ratio(camp_.steals, camp_.jobs), "count/job");
        put("serve.cache_hit_ratio", ratio(camp_.cache_hits, camp_.cache_lookups), "ratio");
        // Tracing overhead: median traced rep time over median untraced rep
        // time, summed over every row.
        double traced = median(camp_.traced_secs.at_nominal(false));
        double plain = median(camp_.secs.at_nominal(false));
        for (auto& r : rows_) {
            traced += median(r.traced_secs.at_nominal(false));
            plain += median(r.secs.at_nominal(false));
        }
        put("trace.overhead_share", ratio(traced - plain, plain), "share");
    }

    std::ostringstream out;
    out << "{\n  \"schema\": \"osm-perfbench-1\",\n";
    out << "  \"workload\": " << json_string(workload_) << ",\n";
    out << "  \"seed\": " << seed_ << ",\n  \"trace\": " << (trace_ ? 1 : 0) << ",\n";
    out << "  \"seconds\": " << json_number(seconds_) << ",\n  \"rounds\": " << rounds_ << ",\n";
    const std::string build_type = OSM_PERFBENCH_BUILD_TYPE;
    out << "  \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"compiler\": " << json_string(OSM_PERFBENCH_COMPILER)
        << ", \"build_type\": " << json_string(build_type)
        << ", \"release_build\": " << (build_type == "Release" ? "true" : "false")
        << ", \"cpu_model\": " << json_string(cpu_model()) << "},\n";
    out << "  \"attempted\": " << tally_.attempted << ",\n  \"failed\": " << tally_.failed << ",\n";
    out << "  \"failures\": [";
    for (std::size_t i = 0; i < tally_.messages.size(); ++i)
        out << (i ? ", " : "") << json_string(tally_.messages[i]);
    out << "],\n  \"metrics\": {\n";
    bool first = true;
    for (const auto& [name, v] : m) {
        out << (first ? "" : ",\n") << "    " << json_string(name) << ": {\"value\": "
            << json_number(v.value) << ", \"unit\": " << json_string(v.unit);
        if (!v.samples.empty()) {
            const auto [lo, hi] = std::minmax_element(v.samples.begin(), v.samples.end());
            auto list = [&](const char* key, const std::vector<double>& xs) {
                out << ", \"" << key << "\": [";
                for (std::size_t i = 0; i < xs.size(); ++i)
                    out << (i ? ", " : "") << json_number(xs[i]);
                out << "]";
            };
            out << ", \"min\": " << json_number(*lo) << ", \"max\": " << json_number(*hi)
                << ", \"samples\": " << v.samples.size() << ", \"raw_median\": "
                << json_number(median(v.raw->value)) << ", \"sensitivity\": "
                << json_number(v.raw->sensitivity) << ", \"fitted_sensitivity\": "
                << json_number(v.raw->fitted_sensitivity(v.is_rate));
            list("reps", v.samples);
            list("raw_reps", v.raw->value);
            list("host_probe", v.raw->host);
        }
        out << "}";
        first = false;
    }
    out << "\n  }\n}\n";
    std::ofstream f(path);
    f << out.str();
    if (!f) throw std::runtime_error("cannot write " + path);

    // Human-readable rates on stderr, Minst/s beside each cycle rate.
    std::fprintf(stderr, "osm-perfbench: %s seed %llu, %u rounds, %llu/%llu failed\n",
                 workload_.c_str(), static_cast<unsigned long long>(seed_), rounds_,
                 static_cast<unsigned long long>(tally_.failed),
                 static_cast<unsigned long long>(tally_.attempted));
    std::map<std::string, double> ipc;  // Minst/s beside each cycle rate
    for (auto& r : rows_)
        if (r.timing) ipc[r.metric()] = ratio(r.sums["run.retired"], r.sums["run.cycles"]);
    for (const auto& [name, v] : m) {
        if (v.raw == nullptr) continue;
        const auto [lo, hi] = std::minmax_element(v.samples.begin(), v.samples.end());
        std::fprintf(stderr, "  %-24s %12.4g %-8s [%.4g .. %.4g]  n=%-4zu", name.c_str(), v.value,
                     v.unit.c_str(), *lo, *hi, v.samples.size());
        if (ipc.count(name)) std::fprintf(stderr, "  %8.3f Minst/s", v.value * ipc[name] / 1e6);
        std::fprintf(stderr, "\n");
    }
    for (const auto& msg : tally_.messages) std::fprintf(stderr, "  FAILED: %s\n", msg.c_str());
    if (build_type != "Release")
        std::fprintf(stderr, "osm-perfbench: WARNING: %s build, timings are not comparable\n",
                     build_type.c_str());
}

/// Rounds of one rep per row until --seconds have passed.  Each rep is
/// credited with the host probe readings taken across it.
void bench::measure() {
    (void)meter_.close_rep();  // the warm-up pass is not a timed rep
    const auto start = bench_clock::now();
    do {
        // Alternate the row order each round so no row always follows the
        // same neighbour; in a traced run, alternate traced/untraced too.
        const bool forward = rounds_ % 2 == 0;
        const std::size_t n = rows_.size() + 1;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t idx = forward ? k : n - 1 - k;
            for (int t = 0; t < (trace_ ? 2 : 1); ++t) {
                const bool traced = trace_ && ((t == 0) != forward);
                const bool campaign = idx == rows_.size();
                const auto got = campaign ? campaign_rep(traced) : engine_rep(rows_[idx], traced);
                const double host = meter_.close_rep();
                if (!got) continue;
                auto& rate = campaign ? (traced ? camp_.traced_rate : camp_.rate)
                                      : (traced ? rows_[idx].traced_rate : rows_[idx].rate);
                auto& secs = campaign ? (traced ? camp_.traced_secs : camp_.secs)
                                      : (traced ? rows_[idx].traced_secs : rows_[idx].secs);
                rate.add(got->rate, host);
                secs.add(got->secs, host);
            }
        }
        ++rounds_;
    } while (rounds_ < 3 || secs_between(start, bench_clock::now()) < seconds_);
}

int bench::run(const std::string& report_path, const std::string& spans_path) {
    // Several set-ups, so set-up time is a median like every other timing.
    for (int i = 0; i < 11; ++i) setup();
    warm_up();
    measure();

    write_report(report_path);
    if (trace_ && !spans_path.empty()) spans_.write(spans_path);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, report, spans;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i], val = argv[i + 1];
        if (arg == "--workload") workload = val;
        else if (arg == "--seed") seed = std::strtoull(val.c_str(), nullptr, 0);
        else if (arg == "--seconds") seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace") trace = std::atoi(val.c_str());
        else if (arg == "--report") report = val;
        else if (arg == "--spans") spans = val;
        else workload.clear(), i = argc;
    }
    if ((workload != "pipeline" && workload != "functional" && workload != "campaign") ||
        report.empty() || seconds <= 0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
        std::fprintf(stderr,
                     "usage: osm-perfbench --workload pipeline|functional|campaign --seed N\n"
                     "                     --seconds S --trace 0|1 --report FILE [--spans FILE]\n");
        return 2;
    }
    try {
        return bench(workload, seed, seconds, trace == 1).run(report, spans);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "osm-perfbench: %s\n", e.what());
        return 1;
    }
}
