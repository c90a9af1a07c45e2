// Tests for the sim::engine layer: the registry, the adapter contract
// (uniform state accessors + stats_report schema), and the differential
// runner.  The last test registers a deliberately-broken eighth engine to
// prove diff_engines catches a divergence — it mutates the process-wide
// registry, so it must stay the final test in this binary.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "mem/shared_mem.hpp"
#include "ppc32/assembler.hpp"
#include "ppc32/randprog.hpp"
#include "sim/diff_runner.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "workloads/randprog.hpp"

namespace {

using namespace osm;

constexpr const char* k_sum_src = R"(
        li a0, 0
        li a1, 1
        li a2, 100
loop:   add a0, a0, a1
        addi a1, a1, 1
        bge a2, a1, loop
        syscall 2
        syscall 3
        syscall 0
)";

constexpr const char* k_fp_src = R"(
        li t0, 3
        fcvt.s.w f1, t0
        fadd f2, f1, f1
        fcvt.w.s a0, f2
        syscall 2
        syscall 0
)";

isa::program_image sum_image() { return isa::assemble(k_sum_src); }

TEST(Registry, ListsAllBuiltinEngines) {
    const auto names = sim::engine_registry::instance().names();
    const std::set<std::string> have(names.begin(), names.end());
    for (const char* n : {"iss", "sarm", "hw", "adl", "smt", "p750", "port",
                          "ppc32", "ppc32-750"}) {
        EXPECT_TRUE(have.count(n)) << "missing engine " << n;
    }
    // Every entry carries a description for --list-engines.
    for (const auto& e : sim::engine_registry::instance().entries()) {
        EXPECT_FALSE(e.description.empty()) << e.name;
    }
}

TEST(Registry, UnknownEngineThrowsWithRegisteredList) {
    try {
        sim::make_engine("spim");
        FAIL() << "expected unknown_engine";
    } catch (const sim::unknown_engine& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("spim"), std::string::npos) << msg;
        // The message must name the alternatives.
        EXPECT_NE(msg.find("sarm"), std::string::npos) << msg;
        EXPECT_NE(msg.find("p750"), std::string::npos) << msg;
    }
}

TEST(Registry, CreatedEngineReportsItsName) {
    for (const auto& name : sim::engine_registry::instance().names()) {
        auto e = sim::make_engine(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_EQ(e->name(), name);
    }
}

TEST(EngineAdapters, RunSmallProgramOnEveryEngine) {
    const auto img = sum_image();
    for (const auto& name : sim::engine_registry::instance().names_for_isa("vr32")) {
        auto e = sim::make_engine(name);
        e->load(img);
        e->run(1'000'000);
        EXPECT_TRUE(e->halted()) << name;
        EXPECT_EQ(e->gpr(4), 5050u) << name;  // a0 = x4
        EXPECT_EQ(e->console(), "5050\n") << name;
        EXPECT_GT(e->retired(), 0u) << name;
        EXPECT_GT(e->cycles(), 0u) << name;
        if (!e->models_timing()) {
            EXPECT_EQ(e->cycles(), e->retired()) << name << " is untimed";
        }
    }
}

TEST(EngineAdapters, StatsReportCarriesUniformSchema) {
    const auto img = sum_image();
    for (const auto& name : sim::engine_registry::instance().names_for_isa("vr32")) {
        auto e = sim::make_engine(name);
        e->load(img);
        e->run(1'000'000);
        const auto rep = e->stats_report();
        // The adapter contract: these keys exist for every engine, so
        // `osm-run --json` emits one stable schema.
        EXPECT_EQ(std::get<std::string>(rep.at("engine", "name")), name);
        EXPECT_EQ(std::get<std::uint64_t>(rep.at("run", "cycles")), e->cycles());
        EXPECT_EQ(std::get<std::uint64_t>(rep.at("run", "retired")), e->retired());
        EXPECT_EQ(std::get<std::uint64_t>(rep.at("run", "halted")), 1u) << name;
        EXPECT_NO_THROW(rep.at("run", "ipc")) << name;
        EXPECT_NO_THROW(rep.at("run", "console_bytes")) << name;
        EXPECT_FALSE(rep.to_json().empty()) << name;
    }
}

/// Two programs for one guest ISA (and the engine config that runs them):
/// the first gives a reused engine its history, the second is compared.
struct reload_case {
    sim::engine_config cfg;
    isa::program_image first, second;
};

/// For each ISA, a random pair (a real timing history: caches, predictors,
/// counters) and a pair whose second program reads a word only the first
/// one wrote (memory left over from the previous program).  mh-iss runs
/// its pairs as a 2-hart TSO machine.
std::vector<reload_case> reload_cases(const std::string& isa_name,
                                      const std::string& engine_name) {
    reload_case rnd, mem;
    if (isa_name == "ppc32") {
        ppc32::randprog_options opt;
        opt.seed = 5;
        rnd.first = ppc32::make_random_program(opt);
        opt.seed = 6;
        rnd.second = ppc32::make_random_program(opt);
        mem.first = ppc32::assemble(
            "li r4, 16384\n li r3, 42\n stw r3, 0(r4)\n li r0, 0\n sc\n");
        mem.second = ppc32::assemble(
            "li r4, 16384\n lwz r3, 0(r4)\n li r0, 2\n sc\n li r0, 0\n sc\n");
        return {rnd, mem};
    }
    EXPECT_EQ(isa_name, "vr32") << "no reload programs for this isa";
    workloads::randprog_options opt;
    if (engine_name == "mh-iss") {
        opt.harts = 2;
        opt.shared_contention = true;
        rnd.cfg.harts = mem.cfg.harts = 2;
        rnd.cfg.memory_model = mem.cfg.memory_model = mem::memory_model::tso;
    }
    opt.seed = 5;
    rnd.first = workloads::make_random_program(opt);
    opt.seed = 6;
    rnd.second = workloads::make_random_program(opt);
    mem.first = isa::assemble("li t0, 36864\n li t1, 42\n sw t1, 0(t0)\n syscall 0\n");
    mem.second = isa::assemble("li t0, 36864\n lw a0, 0(t0)\n syscall 2\n syscall 0\n");
    return {rnd, mem};
}

void expect_same_run(sim::engine& reused, sim::engine& fresh, const std::string& what) {
    EXPECT_EQ(reused.halted(), fresh.halted()) << what;
    EXPECT_EQ(reused.cycles(), fresh.cycles()) << what;
    EXPECT_EQ(reused.retired(), fresh.retired()) << what;
    EXPECT_EQ(reused.console(), fresh.console()) << what;
    ASSERT_EQ(reused.harts(), fresh.harts()) << what;
    for (unsigned h = 0; h < fresh.harts(); ++h) {
        EXPECT_EQ(reused.hart_pc(h), fresh.hart_pc(h)) << what << " hart " << h;
        EXPECT_EQ(reused.hart_retired(h), fresh.hart_retired(h)) << what << " hart " << h;
        for (unsigned r = 0; r < 32; ++r) {
            EXPECT_EQ(reused.hart_gpr(h, r), fresh.hart_gpr(h, r)) << what << " x" << r;
            if (fresh.executes_fp()) {
                EXPECT_EQ(reused.hart_fpr(h, r), fresh.hart_fpr(h, r)) << what << " f" << r;
            }
        }
    }
}

// A second load() must leave no trace of what the engine ran before: the
// reused engine has to match a fresh one on the new program, counters and
// timing included.  Covers every registered engine of every guest ISA, and
// both histories an engine can carry: a finished run, and a restore.
TEST(EngineAdapters, ReloadMatchesFreshEngine) {
    constexpr std::uint64_t budget = 2'000'000;
    for (const auto& entry : sim::engine_registry::instance().entries()) {
        for (const auto& c : reload_cases(entry.isa, entry.name)) {
            auto fresh = entry.make(c.cfg);
            fresh->load(c.second);
            fresh->run(budget);
            ASSERT_TRUE(fresh->halted()) << entry.name;

            auto reused = entry.make(c.cfg);
            reused->load(c.first);
            reused->run(budget);
            reused->load(c.second);
            reused->run(budget);
            expect_same_run(*reused, *fresh, entry.name + " after a run");

            if (!reused->supports_checkpoint()) continue;
            auto restored = entry.make(c.cfg);
            restored->load(c.first);
            restored->run_until_retired(40);
            restored->restore_state(restored->save_state());
            restored->run(budget);
            restored->load(c.second);
            restored->run(budget);
            expect_same_run(*restored, *fresh, entry.name + " after a restore");
        }
    }
}

TEST(EngineConfig, ForwardingPlumbsThrough) {
    const auto img = sum_image();
    sim::engine_config fwd, nofwd;
    nofwd.forwarding = false;
    auto a = sim::make_engine("sarm", fwd);
    auto b = sim::make_engine("sarm", nofwd);
    a->load(img);
    b->load(img);
    a->run(1'000'000);
    b->run(1'000'000);
    EXPECT_TRUE(a->halted());
    EXPECT_TRUE(b->halted());
    EXPECT_EQ(a->gpr(4), b->gpr(4));
    // Dependent adds in the loop body stall without forwarding.
    EXPECT_GT(b->cycles(), a->cycles());
}

TEST(DiffRunner, DetectsFpPrograms) {
    EXPECT_FALSE(sim::program_uses_fp(sum_image()));
    EXPECT_TRUE(sim::program_uses_fp(isa::assemble(k_fp_src)));
}

TEST(DiffRunner, AllEnginesAgreeOnIntegerProgram) {
    const auto res =
        sim::diff_engines(sim::engine_registry::instance().names_for_isa("vr32"), sum_image());
    EXPECT_TRUE(res.ok());
    for (const auto& r : res.runs) {
        EXPECT_TRUE(r.ran) << r.engine;
        EXPECT_TRUE(r.halted) << r.engine;
    }
}

TEST(DiffRunner, IntegerOnlyEnginesSitOutFpPrograms) {
    const auto res = sim::diff_engines(sim::engine_registry::instance().names_for_isa("vr32"),
                                       isa::assemble(k_fp_src));
    EXPECT_TRUE(res.ok());
    bool saw_skip = false;
    for (const auto& r : res.runs) {
        if (!r.ran) {
            saw_skip = true;
            EXPECT_FALSE(r.skip_reason.empty()) << r.engine;
        }
    }
    EXPECT_TRUE(saw_skip) << "smt should skip FP programs";
}

TEST(DiffRunner, RandomProgramsDiffClean) {
    for (std::uint64_t seed : {3u, 21u}) {
        workloads::randprog_options opt;
        opt.seed = seed;
        opt.blocks = 8;
        opt.block_len = 8;
        const auto img = workloads::make_random_program(opt);
        const auto res =
            sim::diff_engines(sim::engine_registry::instance().names_for_isa("vr32"), img);
        EXPECT_TRUE(res.ok()) << "seed " << seed
                              << (res.ok() ? ""
                                           : ": " + res.divergences[0].to_string());
    }
}

TEST(DiffRunner, UnknownNameFailsBeforeRunning) {
    EXPECT_THROW(sim::diff_engines({"iss", "mips"}, sum_image()),
                 sim::unknown_engine);
}

// A deliberately-wrong eighth engine: wraps the ISS but corrupts x10 on
// read.  Registering it exercises the documented extension point
// (docs/engines.md) and proves the differential runner reports the exact
// divergent register.  KEEP LAST: it replaces nothing but adds "bogus" to
// the process-wide registry for the remainder of the test binary.
class bogus_engine final : public sim::engine {
public:
    explicit bogus_engine(const sim::engine_config& cfg)
        : inner_(sim::make_engine("iss", cfg)) {}
    std::string_view name() const override { return "bogus"; }
    void load(const isa::program_image& img) override { inner_->load(img); }
    std::uint64_t run(std::uint64_t max_cycles) override {
        return inner_->run(max_cycles);
    }
    bool halted() const override { return inner_->halted(); }
    std::uint32_t gpr(unsigned r) const override {
        return inner_->gpr(r) ^ (r == 10 ? 0xdead0000u : 0u);
    }
    std::uint32_t fpr(unsigned r) const override { return inner_->fpr(r); }
    std::uint32_t pc() const override { return inner_->pc(); }
    const std::string& console() const override { return inner_->console(); }
    std::uint64_t cycles() const override { return inner_->cycles(); }
    std::uint64_t retired() const override { return inner_->retired(); }
    bool models_timing() const override { return false; }

private:
    std::unique_ptr<sim::engine> inner_;
};

TEST(DiffRunner, ReportsFirstDivergentRegister) {
    sim::engine_registry::instance().add(
        {"bogus", "ISS wrapper that corrupts x10 (test only)",
         [](const sim::engine_config& cfg) {
             return std::make_unique<bogus_engine>(cfg);
         }});
    const auto res = sim::diff_engines({"iss", "bogus"}, sum_image());
    ASSERT_FALSE(res.ok());
    const auto& d = res.divergences.front();
    EXPECT_EQ(d.engine, "bogus");
    EXPECT_EQ(d.reference, "iss");
    EXPECT_EQ(d.kind, "gpr");
    EXPECT_EQ(d.index, 10u);
    EXPECT_NE(d.to_string().find("gpr[10]"), std::string::npos);
}

}  // namespace
