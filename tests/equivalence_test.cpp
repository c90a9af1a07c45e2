// Cross-engine equivalence property tests: random programs executed on
// every engine in the sim::engine registry must produce identical final
// architectural state and console output; the independently-implemented
// pairs must also agree on timing within the paper's few-percent tolerance
// (structured kernels agree exactly — see baseline_test — while
// mispredict-heavy random programs expose wrong-path fetch accounting
// differences, the paper's error class).
//
// The harness is registry-driven: a new engine registered with
// sim::engine_registry is cross-checked against the ISS here with no test
// changes.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "workloads/randprog.hpp"

namespace {

using namespace osm;

struct final_state {
    std::array<std::uint32_t, 32> gpr{};
    std::array<std::uint32_t, 32> fpr{};
    std::string console;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    bool halted = false;
    bool fp = true;  ///< engine executes the FP register file
};

final_state run_engine_cfg(const std::string& name, const isa::program_image& img,
                           const sim::engine_config& cfg) {
    auto sim = sim::make_engine(name, cfg);
    sim->load(img);
    sim->run(100'000'000);
    final_state f;
    for (unsigned r = 0; r < 32; ++r) {
        f.gpr[r] = sim->gpr(r);
        f.fpr[r] = sim->fpr(r);
    }
    f.console = sim->console();
    f.retired = sim->retired();
    f.cycles = sim->cycles();
    f.halted = sim->halted();
    f.fp = sim->executes_fp();
    return f;
}

final_state run_engine(const std::string& name, const isa::program_image& img,
                       bool dcache = true) {
    sim::engine_config cfg;
    cfg.decode_cache = dcache;
    return run_engine_cfg(name, img, cfg);
}

void expect_arch_equal(const final_state& a, const final_state& b,
                       const std::string& engine, std::uint64_t seed) {
    EXPECT_TRUE(b.halted) << engine << " seed=" << seed;
    for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(a.gpr[r], b.gpr[r]) << engine << " x" << r << " seed=" << seed;
        if (a.fp && b.fp) {
            EXPECT_EQ(a.fpr[r], b.fpr[r])
                << engine << " f" << r << " seed=" << seed;
        }
    }
    EXPECT_EQ(a.console, b.console) << engine << " seed=" << seed;
    EXPECT_EQ(a.retired, b.retired) << engine << " seed=" << seed;
}

class RandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalence, AllEnginesAgree) {
    workloads::randprog_options opt;
    opt.seed = static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17;
    opt.blocks = 14;
    opt.block_len = 12;
    opt.with_fp = (GetParam() % 2 == 0);
    const auto img = workloads::make_random_program(opt);

    const auto ref = run_engine("iss", img);
    ASSERT_TRUE(ref.halted) << "seed " << opt.seed;

    // Every registered VR32 engine — including any added after this test
    // was written — is cross-checked against the ISS.  Integer-only
    // engines (executes_fp() == false) sit out FP programs.  (Other-ISA
    // engines run other programs: see ppc32_fuzz_test.)
    std::map<std::string, final_state> results;
    for (const auto& name : sim::engine_registry::instance().names_for_isa("vr32")) {
        if (name == "iss") continue;
        if (opt.with_fp && !sim::make_engine(name)->executes_fp()) continue;
        const auto f = run_engine(name, img);
        expect_arch_equal(ref, f, name, opt.seed);
        results.emplace(name, f);
    }

    // Timing agreement between independent implementations.  Random
    // programs are branch-mispredict heavy and the two implementations
    // interpret wrong-path fetch cache side effects slightly differently
    // (the paper's own comparisons carry the same class of residual), so
    // the bound here is the paper's few-percent tolerance; structured
    // kernels agree exactly (see baseline_test).
    const auto& s = results.at("sarm");
    const auto& h = results.at("hw");
    const double sdiff =
        std::abs(static_cast<double>(s.cycles) - static_cast<double>(h.cycles)) /
        static_cast<double>(h.cycles);
    EXPECT_LT(sdiff, 0.05) << "sarm " << s.cycles << " vs hardwired "
                           << h.cycles << ", seed " << opt.seed;
    const auto& p = results.at("p750");
    const auto& q = results.at("port");
    const double diff =
        std::abs(static_cast<double>(p.cycles) - static_cast<double>(q.cycles)) /
        static_cast<double>(q.cycles);
    EXPECT_LT(diff, 0.03) << "p750 " << p.cycles << " vs port " << q.cycles
                          << ", seed " << opt.seed;

    // The ADL-elaborated SARM is the same machine description in OSM-DL
    // text form: it must match the C++ OSM SARM cycle-for-cycle.
    EXPECT_EQ(results.at("adl").cycles, s.cycles) << "seed " << opt.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalence, ::testing::Range(0, 20));

// The decode cache is a pure host-side optimization: every registered
// engine must produce *bit-identical* results — architectural state,
// console, retired count AND cycle count — with the cache on and off.  A
// cycle divergence here would mean the cache leaked into simulated timing.
TEST(DecodeCacheAblation, BitIdenticalOnAndOff) {
    for (int i = 0; i < 6; ++i) {
        workloads::randprog_options opt;
        opt.seed = 4200u + static_cast<unsigned>(i);
        opt.blocks = 10;
        opt.block_len = 10;
        opt.with_fp = (i % 2 == 0);
        const auto img = workloads::make_random_program(opt);

        for (const auto& name : sim::engine_registry::instance().names_for_isa("vr32")) {
            if (opt.with_fp && !sim::make_engine(name)->executes_fp()) continue;
            const auto on = run_engine(name, img, true);
            const auto off = run_engine(name, img, false);
            expect_arch_equal(on, off, name + " decode-cache off", opt.seed);
            EXPECT_EQ(on.cycles, off.cycles) << name << " seed " << opt.seed;
        }
    }
}

// The block cache is, like the decode cache, a pure host-side
// optimization: every registered engine must produce *bit-identical*
// results — architectural state, console, retired count AND cycle count —
// with it on and off.  Only the ISS actually dispatches translated blocks
// today, but the ablation sweeps the whole registry so an engine that
// later adopts the block cache inherits the invariant for free.
TEST(BlockCacheAblation, BitIdenticalOnAndOff) {
    for (int i = 0; i < 6; ++i) {
        workloads::randprog_options opt;
        opt.seed = 6200u + static_cast<unsigned>(i);
        opt.blocks = 10;
        opt.block_len = 10;
        opt.with_fp = (i % 2 == 0);
        const auto img = workloads::make_random_program(opt);

        for (const auto& name : sim::engine_registry::instance().names_for_isa("vr32")) {
            if (opt.with_fp && !sim::make_engine(name)->executes_fp()) continue;
            sim::engine_config cfg;
            cfg.block_cache = true;
            const auto on = run_engine_cfg(name, img, cfg);
            cfg.block_cache = false;
            const auto off = run_engine_cfg(name, img, cfg);
            expect_arch_equal(on, off, name + " block-cache off", opt.seed);
            EXPECT_EQ(on.cycles, off.cycles) << name << " seed " << opt.seed;
        }
    }
}

TEST(RandomEquivalence, LoopHeavyPrograms) {
    for (int i = 0; i < 5; ++i) {
        workloads::randprog_options opt;
        opt.seed = 9000u + static_cast<unsigned>(i);
        opt.blocks = 8;
        opt.block_len = 6;
        opt.loop_count = 12;
        const auto img = workloads::make_random_program(opt);
        const auto ref = run_engine("iss", img);
        const auto p = run_engine("p750", img);
        expect_arch_equal(ref, p, "p750", opt.seed);
    }
}

}  // namespace
