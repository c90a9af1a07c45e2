// osm-run: execute a program (assembly, VRI image, or a generated random
// program) on any registered execution engine, or differentially across
// several engines at once.
//
//   osm-run prog.s|prog.vri [--engine NAME] [--max-cycles N] [--trace]
//           [--regs] [--json] [--no-forwarding] [--no-decode-cache]
//   osm-run prog --diff iss,sarm,p750     first engine is the reference
//   osm-run prog --diff all               every VR32 engine vs iss
//   osm-run --rand SEED [...]             random terminating program input
//   osm-run --list-engines
//
// The selected engine's guest ISA picks the assembler and random-program
// generator: `--engine ppc32` (or `--diff ppc32,ppc32-750`) assembles the
// input as PPC32.  `--diff all` expands to the VR32 engines only; mixed-ISA
// engine lists are reported as skipped by the differential runner.
//
// Engines come from the sim::engine_registry: unknown names are rejected
// with the registered list, and a newly registered engine is immediately
// runnable and diffable here with no tool changes.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "isa/arch.hpp"
#include "isa/assembler.hpp"
#include "isa/image_io.hpp"
#include "ppc32/arch.hpp"
#include "ppc32/assembler.hpp"
#include "ppc32/randprog.hpp"
#include "sim/checkpoint.hpp"
#include "sim/diff_runner.hpp"
#include "sim/registry.hpp"
#include "trace/trace.hpp"
#include "workloads/randprog.hpp"
#include "workloads/randprog_cli.hpp"

using namespace osm;

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: osm-run prog.s|prog.vri [--engine NAME] [--diff a,b,...|all]\n"
                 "               [--max-cycles N] [--trace] [--regs] [--json]\n"
                 "               [--no-forwarding] [--no-decode-cache]\n"
                 "               [--block-cache|--no-block-cache]\n"
                 "               [--save-at N] [--save FILE] [--dump-arch]\n"
                 "       osm-run prog --lockstep ENGINE [--interval N]\n"
                 "                                       retirement-lockstep vs iss; on\n"
                 "                                       divergence, bisect via checkpoints\n"
                 "       osm-run --restore FILE [--engine NAME] [options]\n"
                 "                                       resume from a checkpoint (no program)\n"
                 "       osm-run --rand SEED [options]   run a generated random program\n"
                 "       osm-run --list-engines\n"
                 "checkpoint flags: --save FILE writes FILE and FILE.json after the run;\n"
                 "--save-at N saves at retirement N and then keeps running; --dump-arch\n"
                 "prints a deterministic architectural-state dump after the run.\n"
                 "generator flags (with --rand, shared with osm-fuzz):\n%s",
                 workloads::randprog_flags_help().c_str());
    std::exit(2);
}

void list_engines() {
    for (const auto& e : sim::engine_registry::instance().entries()) {
        std::printf("%-10s %-6s %s\n", e.name.c_str(), e.isa.c_str(),
                    e.description.c_str());
    }
}

void dump_regs(const sim::engine& eng) {
    const bool ppc = eng.isa() == "ppc32";
    for (unsigned r = 0; r < isa::num_gprs; ++r) {
        const std::string name =
            ppc ? ppc32::reg_name(r) : std::string(isa::gpr_name(r));
        std::printf("%5s=%08X%s", name.c_str(), eng.gpr(r),
                    (r % 4 == 3) ? "\n" : "  ");
    }
}

/// Deterministic line-per-field architectural dump: scripts diff a straight
/// run against a save/restore run (dropping pc=/cycles= lines for timing
/// engines, whose pipeline refill legitimately changes both).
void dump_arch(const sim::engine& eng) {
    std::printf("halted=%d\n", eng.halted() ? 1 : 0);
    std::printf("retired=%llu\n", static_cast<unsigned long long>(eng.retired()));
    std::printf("cycles=%llu\n", static_cast<unsigned long long>(eng.cycles()));
    std::printf("pc=%08X\n", eng.pc());
    for (unsigned r = 0; r < isa::num_gprs; ++r) std::printf("gpr%02u=%08X\n", r, eng.gpr(r));
    for (unsigned r = 0; r < isa::num_fprs; ++r) std::printf("fpr%02u=%08X\n", r, eng.fpr(r));
    std::printf("console_bytes=%zu\n", eng.console().size());
    std::printf("console=");
    for (const char c : eng.console()) {
        if (c == '\n') std::printf("\\n");
        else if (std::isprint(static_cast<unsigned char>(c))) std::printf("%c", c);
        else std::printf("\\x%02x", static_cast<unsigned char>(c));
    }
    std::printf("\n");
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

int run_diff(const std::string& spec, const isa::program_image& img,
             const sim::diff_options& opt) {
    std::vector<std::string> names;
    if (spec == "all") {
        // "all" means all VR32 engines; diff PPC32 engines with an explicit
        // list (--diff ppc32,ppc32-750).
        names = sim::engine_registry::instance().names_for_isa("vr32");
    } else {
        names = split_names(spec);
    }
    if (names.size() < 2) {
        std::fprintf(stderr, "osm-run: --diff needs at least two engines\n");
        return 2;
    }
    const auto result = sim::diff_engines(names, img, opt);
    for (const auto& run : result.runs) {
        if (!run.ran) {
            std::printf("%-6s skipped (%s)\n", run.engine.c_str(),
                        run.skip_reason.c_str());
            continue;
        }
        std::printf("%-6s cycles=%-12llu retired=%-10llu halted=%d\n",
                    run.engine.c_str(), static_cast<unsigned long long>(run.cycles),
                    static_cast<unsigned long long>(run.retired), run.halted);
    }
    if (result.ok()) {
        std::printf("diff: no architectural divergence across %zu engine(s)\n",
                    result.runs.size());
        return 0;
    }
    for (const auto& d : result.divergences) {
        std::printf("diff: %s\n", d.to_string().c_str());
    }
    return 4;
}

}  // namespace

int main(int argc, char** argv) {
    std::string input;
    std::string engine = "sarm";
    std::string diff_spec;
    std::uint64_t max_cycles = 2'000'000'000ull;
    std::uint64_t rand_seed = 0;
    bool have_rand = false;
    bool want_trace = false;
    bool want_regs = false;
    bool want_json = false;
    bool want_dump_arch = false;
    bool have_save_at = false;
    std::uint64_t save_at = 0;
    std::string save_path;
    std::string restore_path;
    std::string lockstep_eng;
    std::uint64_t interval = 256;
    sim::engine_config cfg;
    workloads::randprog_options rand_opt;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (workloads::parse_randprog_flag(argc, argv, i, rand_opt)) continue;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "osm-run: %s\n", e.what());
            return 2;
        }
        if (arg == "--engine" && i + 1 < argc) engine = argv[++i];
        else if (arg == "--diff" && i + 1 < argc) diff_spec = argv[++i];
        else if (arg == "--max-cycles" && i + 1 < argc) max_cycles = std::strtoull(argv[++i], nullptr, 0);
        else if (arg == "--rand" && i + 1 < argc) { rand_seed = std::strtoull(argv[++i], nullptr, 0); have_rand = true; }
        else if (arg == "--trace") want_trace = true;
        else if (arg == "--json") want_json = true;
        else if (arg == "--regs") want_regs = true;
        else if (arg == "--dump-arch") want_dump_arch = true;
        else if (arg == "--save-at" && i + 1 < argc) { save_at = std::strtoull(argv[++i], nullptr, 0); have_save_at = true; }
        else if (arg == "--save" && i + 1 < argc) save_path = argv[++i];
        else if (arg == "--restore" && i + 1 < argc) restore_path = argv[++i];
        else if (arg == "--lockstep" && i + 1 < argc) lockstep_eng = argv[++i];
        else if (arg == "--interval" && i + 1 < argc) interval = std::strtoull(argv[++i], nullptr, 0);
        else if (arg == "--no-forwarding") cfg.forwarding = false;
        else if (arg == "--no-decode-cache") cfg.decode_cache = false;
        else if (arg == "--block-cache") cfg.block_cache = true;
        else if (arg == "--no-block-cache") cfg.block_cache = false;
        else if (arg == "--list-engines") { list_engines(); return 0; }
        else if (!arg.empty() && arg[0] == '-') usage();
        else if (input.empty()) input = arg;
        else usage();
    }
    if (input.empty() && !have_rand && restore_path.empty()) usage();
    if (have_save_at && save_path.empty()) {
        std::fprintf(stderr, "osm-run: --save-at requires --save FILE\n");
        return 2;
    }

    // The target ISA (from the engine or the first --diff engine) picks the
    // assembler and random-program generator.  Lockstep and --diff all run
    // against the VR32 iss reference.
    std::string target_isa = "vr32";
    {
        std::string first;
        if (!diff_spec.empty() && diff_spec != "all") {
            const auto names = split_names(diff_spec);
            if (!names.empty()) first = names.front();
        } else if (diff_spec.empty() && lockstep_eng.empty()) {
            first = engine;
        }
        if (!first.empty()) {
            if (const auto* e = sim::engine_registry::instance().find(first)) {
                target_isa = e->isa;
            }
        }
    }

    isa::program_image img;
    const bool have_program = !input.empty() || have_rand;
    try {
        if (!have_program) {
            // --restore only: the checkpoint is the whole machine state.
        } else if (have_rand) {
            rand_opt.seed = rand_seed;
            if (target_isa == "ppc32") {
                ppc32::randprog_options po;
                po.seed = rand_opt.seed;
                po.blocks = rand_opt.blocks;
                po.block_len = rand_opt.block_len;
                po.with_mul_div = rand_opt.with_mul_div;
                po.with_memory = rand_opt.with_memory;
                po.with_branches = rand_opt.with_branches;
                po.loop_count = rand_opt.loop_count;
                img = ppc32::make_random_program(po);
            } else {
                img = workloads::make_random_program(rand_opt);
            }
        } else if (input.size() > 4 && input.substr(input.size() - 4) == ".vri") {
            img = isa::load_image(input);
        } else {
            std::ifstream in(input);
            if (!in) throw std::runtime_error("cannot open " + input);
            std::ostringstream src;
            src << in.rdbuf();
            img = target_isa == "ppc32" ? ppc32::assemble(src.str())
                                        : isa::assemble(src.str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "osm-run: %s\n", e.what());
        return 1;
    }

    if (!diff_spec.empty()) {
        sim::diff_options opt;
        opt.config = cfg;
        opt.max_cycles = max_cycles;
        try {
            return run_diff(diff_spec, img, opt);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "osm-run: %s\n", e.what());
            return 1;
        }
    }

    if (!lockstep_eng.empty()) {
        if (!have_program) {
            std::fprintf(stderr, "osm-run: --lockstep needs a program\n");
            return 2;
        }
        sim::lockstep_options opt;
        opt.config = cfg;
        opt.interval = interval;
        try {
            const auto r = sim::lockstep_diff(lockstep_eng, img, opt);
            if (!r.ran) {
                std::printf("lockstep: %s skipped (%s)\n", lockstep_eng.c_str(),
                            r.skip_reason.c_str());
                return 0;
            }
            if (!r.diverged) {
                std::printf("lockstep: %s agrees with %s through %llu retirement(s) "
                            "(%llu compare(s))%s\n",
                            lockstep_eng.c_str(), opt.reference.c_str(),
                            static_cast<unsigned long long>(r.final_retired),
                            static_cast<unsigned long long>(r.compares),
                            r.hit_budget ? ", budget hit" : "");
                return r.hit_budget ? 3 : 0;
            }
            std::printf("lockstep: %s\n", r.div.to_string().c_str());
            if (r.located) {
                std::printf("lockstep: first divergent retirement = %llu "
                            "(%s bisection, %llu restore(s))\n",
                            static_cast<unsigned long long>(r.first_divergent_retired),
                            r.used_checkpoint_bisect ? "checkpoint" : "rerun",
                            static_cast<unsigned long long>(r.restores));
            }
            return 4;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "osm-run: %s\n", e.what());
            return 1;
        }
    }

    std::unique_ptr<sim::engine> sim;
    try {
        sim = sim::make_engine(engine, cfg);
    } catch (const sim::unknown_engine& e) {
        std::fprintf(stderr, "osm-run: %s\n", e.what());
        return 1;
    }

    std::unique_ptr<trace::pipeline_tracer> tracer;
    try {
        if (!restore_path.empty()) {
            sim->restore_state(sim::load_checkpoint_file(restore_path));
        } else {
            sim->load(img);
        }
        // Attach after load/restore: both may rebuild the model, which
        // would leave the tracer hooked into the discarded one.
        if (want_trace) {
            if (sim->director() && sim->kernel()) {
                tracer = std::make_unique<trace::pipeline_tracer>(*sim->director(),
                                                                  *sim->kernel());
                tracer->start();
            } else {
                std::fprintf(stderr,
                             "osm-run: engine '%s' is not OSM-director based; --trace ignored\n",
                             engine.c_str());
            }
        }
        if (have_save_at) {
            sim->run_until_retired(save_at);
            sim::save_checkpoint_file(sim->save_state(), save_path);
            sim->run(max_cycles);
        } else {
            sim->run(max_cycles);
            if (!save_path.empty()) {
                sim::save_checkpoint_file(sim->save_state(), save_path);
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "osm-run: %s\n", e.what());
        return 1;
    }

    // With --json, stdout carries exactly one JSON document; the program's
    // console stream and the human summary move to stderr so scripts can
    // pipe the report straight into a parser.
    FILE* human = want_json ? stderr : stdout;
    std::fprintf(human, "%s", sim->console().c_str());
    std::fprintf(human, "[%s] cycles=%llu retired=%llu ipc=%.3f halted=%d\n",
                 std::string(sim->name()).c_str(),
                 static_cast<unsigned long long>(sim->cycles()),
                 static_cast<unsigned long long>(sim->retired()), sim->ipc(),
                 sim->halted());
    if (tracer) std::fprintf(human, "%s", tracer->render(72).c_str());
    if (want_json) std::printf("%s", sim->stats_report().to_json().c_str());
    if (want_regs) dump_regs(*sim);
    if (want_dump_arch) dump_arch(*sim);
    return sim->halted() ? 0 : 3;
}
