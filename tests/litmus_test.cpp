// Litmus-test differential suite (src/fuzz/litmus.*): the committed corpus
// under tests/corpus/litmus/ must match re-enumeration exactly; the
// multi-hart ISS must never escape the exhaustively enumerated outcome set
// of its configured model (SC or TSO); the model-distinguishing outcomes
// must actually be reached (SB's r1==0 && r2==0 under TSO) and stay
// unreachable where forbidden (SB under SC, SB+fences under both); every
// run is a deterministic function of (test, model, schedule seed); and a
// hart fetching code it just stored sees its own buffered store while the
// other hart sees committed memory, through each hart's decode cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/xrandom.hpp"
#include "fuzz/litmus.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "isa/mh_iss.hpp"
#include "mem/main_memory.hpp"
#include "sim/diff_runner.hpp"
#include "sim/registry.hpp"

#ifndef OSM_LITMUS_CORPUS_DIR
#define OSM_LITMUS_CORPUS_DIR "tests/corpus/litmus"
#endif

namespace {

using namespace osm;
using fuzz::litmus_outcome;
using fuzz::litmus_test;

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) ADD_FAILURE() << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<std::string> corpus_files() {
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(OSM_LITMUS_CORPUS_DIR)) {
        if (e.path().extension() == ".litmus") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

litmus_test find_test(const std::string& name) {
    for (auto& t : fuzz::litmus_suite()) {
        if (t.name == name) return t;
    }
    ADD_FAILURE() << "suite has no test named " << name;
    return {};
}

/// The SB observation slots are [(hart0, r0), (hart1, r0)]; 0/0 is the
/// store-buffering outcome TSO allows and SC forbids.
const litmus_outcome k_sb_zero_zero{0, 0};

std::string outcomes_string(const std::set<litmus_outcome>& s) {
    std::string out;
    for (const auto& o : s) {
        if (!out.empty()) out += ' ';
        out += fuzz::outcome_to_string(o);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Committed corpus.
// ---------------------------------------------------------------------------

// Every committed .litmus file re-enumerates to exactly the recorded
// sc:/tso: sets — the corpus is a regression pin on both operational
// models, not just documentation.
TEST(LitmusCorpus, RecordedOutcomeSetsMatchReenumeration) {
    const auto files = corpus_files();
    ASSERT_FALSE(files.empty()) << "no .litmus files under " << OSM_LITMUS_CORPUS_DIR;
    for (const auto& path : files) {
        const auto t = fuzz::parse_litmus(read_file(path));
        EXPECT_EQ(fuzz::enumerate_outcomes(t, mem::memory_model::sc), t.sc_allowed)
            << path << " sc set";
        EXPECT_EQ(fuzz::enumerate_outcomes(t, mem::memory_model::tso), t.tso_allowed)
            << path << " tso set";
    }
}

// The canonical suite round-trips through the corpus text format without
// losing structure or outcome sets.
TEST(LitmusCorpus, TextFormatRoundTripsTheSuite) {
    for (auto t : fuzz::litmus_suite()) {
        t.sc_allowed = fuzz::enumerate_outcomes(t, mem::memory_model::sc);
        t.tso_allowed = fuzz::enumerate_outcomes(t, mem::memory_model::tso);
        const auto back = fuzz::parse_litmus(fuzz::to_text(t));
        EXPECT_EQ(back.name, t.name);
        EXPECT_EQ(back.locations, t.locations);
        ASSERT_EQ(back.harts.size(), t.harts.size());
        EXPECT_EQ(back.sc_allowed, t.sc_allowed);
        EXPECT_EQ(back.tso_allowed, t.tso_allowed);
        EXPECT_EQ(fuzz::to_text(back), fuzz::to_text(t));
    }
}

// ---------------------------------------------------------------------------
// Model-distinguishing outcomes (the ISSUE's acceptance criteria).
// ---------------------------------------------------------------------------

// SB's r1==0 && r2==0: forbidden by SC — absent from the exhaustive
// enumeration and never observed across 1000 seeded schedules.
TEST(LitmusModels, StoreBufferingZeroZeroNeverUnderSC) {
    const auto sb = find_test("SB");
    const auto allowed = fuzz::enumerate_outcomes(sb, mem::memory_model::sc);
    EXPECT_FALSE(allowed.count(k_sb_zero_zero))
        << "SC enumeration allows 0,0: " << outcomes_string(allowed);
    const auto observed = fuzz::run_litmus(sb, mem::memory_model::sc, 1, 1000);
    EXPECT_FALSE(observed.count(k_sb_zero_zero))
        << "multi-hart ISS under SC reached the store-buffering outcome";
    for (const auto& o : observed) {
        EXPECT_TRUE(allowed.count(o))
            << "SC run escaped the SC model: " << fuzz::outcome_to_string(o);
    }
}

// ...allowed by TSO — present in the enumeration and actually reached by
// the store-buffer implementation within a bounded schedule sweep.
TEST(LitmusModels, StoreBufferingZeroZeroObservedUnderTSO) {
    const auto sb = find_test("SB");
    const auto allowed = fuzz::enumerate_outcomes(sb, mem::memory_model::tso);
    EXPECT_TRUE(allowed.count(k_sb_zero_zero))
        << "TSO enumeration misses 0,0: " << outcomes_string(allowed);
    const auto observed = fuzz::run_litmus(sb, mem::memory_model::tso, 1, 1000);
    EXPECT_TRUE(observed.count(k_sb_zero_zero))
        << "store buffers never surfaced 0,0 in 1000 schedules; observed: "
        << outcomes_string(observed);
}

// ...and forbidden under BOTH models once fences separate the store from
// the load (SB+fences drains the buffer before each load).
TEST(LitmusModels, FencedStoreBufferingForbidsZeroZeroUnderBothModels) {
    const auto sbf = find_test("SB+fences");
    for (const auto model : {mem::memory_model::sc, mem::memory_model::tso}) {
        const auto allowed = fuzz::enumerate_outcomes(sbf, model);
        EXPECT_FALSE(allowed.count(k_sb_zero_zero))
            << mem::memory_model_name(model) << " enumeration allows fenced 0,0";
        const auto observed = fuzz::run_litmus(sbf, model, 1, 500);
        EXPECT_FALSE(observed.count(k_sb_zero_zero))
            << mem::memory_model_name(model) << " run reached fenced 0,0";
    }
}

// SC is the stronger model: everything SC allows, TSO allows too, on every
// suite test.
TEST(LitmusModels, SCOutcomesAreASubsetOfTSO) {
    for (const auto& t : fuzz::litmus_suite()) {
        const auto sc = fuzz::enumerate_outcomes(t, mem::memory_model::sc);
        const auto tso = fuzz::enumerate_outcomes(t, mem::memory_model::tso);
        for (const auto& o : sc) {
            EXPECT_TRUE(tso.count(o)) << t.name << ": SC-only outcome "
                                      << fuzz::outcome_to_string(o);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: the ISS never escapes the enumerated set.
// ---------------------------------------------------------------------------

TEST(LitmusOracle, SuiteRunsStayInsideTheEnumeratedSets) {
    for (const auto& t : fuzz::litmus_suite()) {
        for (const auto model : {mem::memory_model::sc, mem::memory_model::tso}) {
            const auto allowed = fuzz::enumerate_outcomes(t, model);
            const auto observed = fuzz::run_litmus(t, model, 1, 200);
            EXPECT_FALSE(observed.empty()) << t.name;
            for (const auto& o : observed) {
                EXPECT_TRUE(allowed.count(o))
                    << t.name << " under " << mem::memory_model_name(model)
                    << ": out-of-model outcome " << fuzz::outcome_to_string(o);
            }
        }
    }
}

TEST(LitmusOracle, RandomTestsStayInsideTheEnumeratedSets) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        xrandom rng(seed);
        const auto t = fuzz::random_litmus(rng);
        for (const auto model : {mem::memory_model::sc, mem::memory_model::tso}) {
            const auto allowed = fuzz::enumerate_outcomes(t, model);
            const auto observed = fuzz::run_litmus(t, model, 1, 100);
            for (const auto& o : observed) {
                EXPECT_TRUE(allowed.count(o))
                    << "random seed " << seed << " under "
                    << mem::memory_model_name(model) << ": out-of-model outcome "
                    << fuzz::outcome_to_string(o);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism: a run is a pure function of (test, model, schedule seed).
// ---------------------------------------------------------------------------

TEST(LitmusDeterminism, SameScheduleSeedReproducesTheMachineBitForBit) {
    const auto sb = find_test("SB");
    const auto img = fuzz::compile_litmus(sb);
    for (const auto model : {mem::memory_model::sc, mem::memory_model::tso}) {
        for (std::uint64_t sched = 1; sched <= 20; ++sched) {
            std::vector<std::uint32_t> digests[2];
            for (int rep = 0; rep < 2; ++rep) {
                mem::main_memory m;
                isa::mh_iss sim(m, static_cast<unsigned>(sb.harts.size()), model, sched);
                sim.load(img);
                sim.run(100'000);
                ASSERT_TRUE(sim.all_halted());
                auto& d = digests[rep];
                for (unsigned h = 0; h < sim.harts(); ++h) {
                    const isa::arch_state& st = sim.state(h);
                    d.push_back(st.pc);
                    for (const std::uint32_t r : st.gpr) d.push_back(r);
                    d.push_back(static_cast<std::uint32_t>(sim.instret(h)));
                }
            }
            EXPECT_EQ(digests[0], digests[1])
                << mem::memory_model_name(model) << " schedule " << sched;
        }
    }
}

TEST(LitmusDeterminism, RunLitmusIsReproducibleSeedBySeed) {
    const auto mp = find_test("MP");
    for (const auto model : {mem::memory_model::sc, mem::memory_model::tso}) {
        for (std::uint64_t sched = 1; sched <= 10; ++sched) {
            const auto a = fuzz::run_litmus(mp, model, sched, sched);
            const auto b = fuzz::run_litmus(mp, model, sched, sched);
            ASSERT_EQ(a.size(), 1u);
            EXPECT_EQ(a, b) << mem::memory_model_name(model) << " seed " << sched;
        }
    }
}

// ---------------------------------------------------------------------------
// Self-modifying code through the per-hart decode caches.
// ---------------------------------------------------------------------------

constexpr std::uint32_t k_patch_site = 0x1000;
constexpr unsigned k_a0 = 4, k_a1 = 5;

/// The word `addi a0, zero, 2`, which hart 0 stores over the patch site.
std::uint32_t patched_word() {
    return isa::encode(isa::decoded_inst{isa::op::addi, k_a0, 0, 0, 2});
}

/// Both harts call the subroutine at k_patch_site, which sets a0 = 1.  Hart
/// 0 calls it once (caching the decode), stores `addi a0, zero, 2` over it,
/// calls it again and leaves 1 + 2 in a1.  Hart 1 calls it in a loop.
isa::program_image smc_program() {
    const std::string src =
        "patch:  addi a0, zero, 1\n"  // text base 0x1000
        "        ret\n"
        "        .align 256\n"  // hart 0 at 0x1100
        "        call patch\n"
        "        mv a1, a0\n"
        "        li t0, 4096\n"
        "        li t1, " + std::to_string(patched_word()) + "\n"
        "        sw t1, 0(t0)\n"
        "        call patch\n"
        "        add a1, a1, a0\n"
        "        halt\n"
        "        .align 256\n"  // hart 1 at 0x1200
        "        li t2, 12\n"
        "loop:   call patch\n"
        "        addi t2, t2, -1\n"
        "        bne t2, zero, loop\n"
        "        halt\n";
    auto img = isa::assemble(src);
    img.entry = 0x1100;
    img.hart_entries = {0x1100, 0x1200};
    return img;
}

// Under TSO hart 0's store waits in its own buffer.  Hart 0 must fetch the
// forwarded word (its decode cache re-decodes the line it cached on the
// first call); hart 1 must fetch committed memory, so it sees the new
// instruction exactly when the store has drained.  Checked at every
// execution of the patch site, over enough schedules to reach each case.
TEST(LitmusSelfModifyingCode, HartFetchesItsOwnBufferedStoreAndOnlyItsOwn) {
    const std::uint32_t new_word = patched_word();
    const auto img = smc_program();
    unsigned own_forwarded = 0, other_stale = 0, other_new = 0;
    for (std::uint64_t sched = 1; sched <= 200; ++sched) {
        mem::main_memory m;
        isa::mh_iss sim(m, 2, mem::memory_model::tso, sched);
        sim.load(img);
        unsigned own_calls = 0;
        for (unsigned n = 0; n < 10'000 && !sim.all_halted(); ++n) {
            const std::uint32_t pc[2] = {sim.state(0).pc, sim.state(1).pc};
            const std::uint64_t ret[2] = {sim.instret(0), sim.instret(1)};
            sim.step();
            // A step drains before it executes, and a hart's own step never
            // drains the other hart's buffer: memory after the step is what
            // the executing hart fetched from.
            const bool committed = m.read32(k_patch_site) == new_word;
            const bool buffered = !sim.shared().buffer_empty(0);
            if (pc[0] == k_patch_site && sim.instret(0) != ret[0]) {
                ++own_calls;
                ASSERT_EQ(sim.state(0).gpr[k_a0], own_calls == 1 ? 1u : 2u)
                    << "schedule " << sched << " call " << own_calls;
                if (own_calls == 2 && buffered) ++own_forwarded;
            }
            if (pc[1] == k_patch_site && sim.instret(1) != ret[1]) {
                ASSERT_EQ(sim.state(1).gpr[k_a0], committed ? 2u : 1u)
                    << "schedule " << sched;
                if (committed) ++other_new;
                if (buffered) ++other_stale;
            }
        }
        ASSERT_TRUE(sim.all_halted()) << "schedule " << sched;
        EXPECT_EQ(sim.state(0).gpr[k_a1], 3u) << "schedule " << sched;
    }
    EXPECT_GT(own_forwarded, 0u) << "no schedule fetched the patch from the buffer";
    EXPECT_GT(other_stale, 0u) << "no schedule ran the old word beside a buffered patch";
    EXPECT_GT(other_new, 0u) << "no schedule showed the other hart the committed patch";
}

// With one hart under SC, mh-iss is the plain ISS: the same program (hart
// 0's part) must end in the same state as on iss, whose translated blocks
// take the self-modifying store through the block cache instead.
TEST(LitmusSelfModifyingCode, OneHartScMatchesIss) {
    auto img = smc_program();
    img.hart_entries.clear();
    const auto res = sim::diff_engines({"iss", "mh-iss"}, img);
    ASSERT_EQ(res.runs.size(), 2u);
    EXPECT_TRUE(res.runs[1].ran) << res.runs[1].skip_reason;
    EXPECT_TRUE(res.divergences.empty()) << res.divergences.front().to_string();
    auto e = sim::make_engine("mh-iss");
    e->load(img);
    e->run(10'000);
    EXPECT_TRUE(e->halted());
    EXPECT_EQ(e->gpr(k_a1), 3u);
}

}  // namespace
