// The OSM-DL-described SARM must be cycle-for-cycle identical to the
// hand-built sarm::sarm_model — the retargetable-generation thesis.
#include <gtest/gtest.h>

#include "adl/adl.hpp"
#include "adl/adl_sarm.hpp"
#include "mem/main_memory.hpp"
#include "sarm/sarm.hpp"
#include "workloads/randprog.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace osm;

struct pair_result {
    std::uint64_t native_cycles = 0;
    std::uint64_t adl_cycles = 0;
    bool regs_equal = true;
    bool both_halted = false;
};

pair_result run_both(const isa::program_image& img,
                     const sarm::sarm_config& cfg = {}) {
    mem::main_memory m1, m2;
    sarm::sarm_model native(cfg, m1);
    native.load(img);
    native.run(2'000'000'000ull);
    sarm::sarm_model from_text(cfg, m2, adl::sarm_osmdl());
    from_text.load(img);
    from_text.run(2'000'000'000ull);

    pair_result r;
    r.native_cycles = native.stats().cycles;
    r.adl_cycles = from_text.stats().cycles;
    r.both_halted = native.halted() && from_text.halted();
    for (unsigned i = 0; i < 32; ++i) {
        if (native.gpr(i) != from_text.gpr(i)) r.regs_equal = false;
        if (native.fpr(i) != from_text.fpr(i)) r.regs_equal = false;
    }
    return r;
}

TEST(AdlSarm, DescriptionMatchesHandBuiltGraph) {
    // Elaborate the text onto the hand-built model's own managers, so both
    // graphs name the same manager objects and every edge compares exactly.
    mem::main_memory m;
    sarm::sarm_model native(sarm::sarm_config{}, m);
    adl::action_registry actions;
    for (const char* a : {"fetch", "execute", "mem", "buffer_exit", "retire"}) {
        actions[a] = [](core::osm&) {};
    }
    const auto text = adl::parse_machine(adl::sarm_osmdl(), actions,
                                         /*allow_missing_actions=*/false, native.managers());
    const core::osm_graph& g = text->graph;
    const core::osm_graph& h = native.graph();
    ASSERT_EQ(g.num_states(), h.num_states());
    ASSERT_EQ(g.num_edges(), h.num_edges());
    EXPECT_EQ(g.ident_slots(), h.ident_slots());
    EXPECT_EQ(g.initial(), h.initial());
    for (core::state_id s = 0; s < h.num_states(); ++s) {
        EXPECT_EQ(g.state_name(s), h.state_name(s));
    }
    for (std::int32_t e = 0; e < h.num_edges(); ++e) {
        SCOPED_TRACE("edge " + std::to_string(e));
        const core::graph_edge& a = g.edge(e);
        const core::graph_edge& b = h.edge(e);
        EXPECT_EQ(a.from, b.from);
        EXPECT_EQ(a.to, b.to);
        EXPECT_EQ(a.priority, b.priority);
        EXPECT_EQ(static_cast<bool>(a.action), static_cast<bool>(b.action));
        ASSERT_EQ(a.prims.size(), b.prims.size());
        for (std::size_t i = 0; i < b.prims.size(); ++i) {
            EXPECT_EQ(a.prims[i].kind, b.prims[i].kind) << "primitive " << i;
            EXPECT_EQ(a.prims[i].mgr, b.prims[i].mgr) << "primitive " << i;
            EXPECT_EQ(a.prims[i].ident.slot, b.prims[i].ident.slot) << "primitive " << i;
            EXPECT_EQ(a.prims[i].ident.fixed, b.prims[i].ident.fixed) << "primitive " << i;
        }
    }
}

TEST(AdlSarm, CycleExactOnMediabench) {
    for (auto& w : {workloads::make_gsm_dec(1), workloads::make_g721_enc(1)}) {
        const auto r = run_both(w.image);
        EXPECT_TRUE(r.both_halted) << w.name;
        EXPECT_TRUE(r.regs_equal) << w.name;
        EXPECT_EQ(r.adl_cycles, r.native_cycles) << w.name;
    }
}

TEST(AdlSarm, CycleExactOnRandomPrograms) {
    for (int seed = 0; seed < 8; ++seed) {
        workloads::randprog_options opt;
        opt.seed = 4242u + static_cast<unsigned>(seed);
        opt.with_fp = (seed % 2 == 0);
        const auto img = workloads::make_random_program(opt);
        const auto r = run_both(img);
        EXPECT_TRUE(r.both_halted) << "seed " << opt.seed;
        EXPECT_TRUE(r.regs_equal) << "seed " << opt.seed;
        EXPECT_EQ(r.adl_cycles, r.native_cycles) << "seed " << opt.seed;
    }
}

TEST(AdlSarm, ConfigKnobsStillApply) {
    const auto w = workloads::make_gsm_dec(1);
    sarm::sarm_config no_fwd;
    no_fwd.forwarding = false;
    const auto fwd = run_both(w.image);
    const auto slow = run_both(w.image, no_fwd);
    EXPECT_EQ(slow.adl_cycles, slow.native_cycles);
    EXPECT_GT(slow.adl_cycles, fwd.adl_cycles);

    // A store buffer in front of a write-through D-cache (the SA-110 layout).
    sarm::sarm_config wbuf;
    wbuf.write_buffer = true;
    wbuf.dcache.wpolicy = mem::write_policy::write_through;
    const auto mpeg = workloads::make_mpeg2_enc(1);
    const auto buffered = run_both(mpeg.image, wbuf);
    EXPECT_TRUE(buffered.both_halted);
    EXPECT_EQ(buffered.adl_cycles, buffered.native_cycles);

    sarm::sarm_config slow_mul;
    slow_mul.mul_extra = 2;
    const auto mul = run_both(w.image, slow_mul);
    EXPECT_EQ(mul.adl_cycles, mul.native_cycles);
    EXPECT_GT(mul.adl_cycles, fwd.adl_cycles);

    sarm::sarm_config restart;
    restart.director_restart = true;
    const auto rs = run_both(w.image, restart);
    EXPECT_TRUE(rs.regs_equal);
    EXPECT_EQ(rs.adl_cycles, rs.native_cycles);
}

}  // namespace
