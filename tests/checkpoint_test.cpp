// Tests for the checkpoint/restore subsystem (src/sim/checkpoint.*):
// serialization round-trips and corruption rejection, the save→restore→run
// == straight-run property on every engine that supports checkpointing
// (fixed programs and a randprog sweep), cross-engine warm boot from an ISS
// checkpoint, byte-stability of the committed golden checkpoints under
// tests/golden/, retirement-lockstep diffing, and checkpointed divergence
// bisection/minimization.  As in fuzz_test.cpp, tests that register a
// deliberately broken engine into the process-wide registry come after all
// tests that iterate "all registered engines".
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/minimize.hpp"
#include "isa/assembler.hpp"
#include "mem/main_memory.hpp"
#include "sim/checkpoint.hpp"
#include "sim/diff_runner.hpp"
#include "sim/registry.hpp"
#include "workloads/randprog.hpp"

#ifndef OSM_EXAMPLES_DIR
#define OSM_EXAMPLES_DIR "examples/asm"
#endif
#ifndef OSM_GOLDEN_DIR
#define OSM_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace osm;

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) ADD_FAILURE() << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

isa::program_image assemble_example(const std::string& name) {
    return isa::assemble(read_file(std::string(OSM_EXAMPLES_DIR) + "/" + name));
}

bool images_equal(const isa::program_image& a, const isa::program_image& b) {
    if (a.entry != b.entry || a.segments.size() != b.segments.size()) return false;
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        if (a.segments[i].base != b.segments[i].base ||
            a.segments[i].bytes != b.segments[i].bytes) {
            return false;
        }
    }
    return true;
}

/// Architectural equality at a shared retirement boundary.  Cycles are
/// compared only when `exact` (the architectural level restarts them).
void expect_state_equal(const sim::engine& a, const sim::engine& b,
                        bool exact, const std::string& context) {
    EXPECT_EQ(a.halted(), b.halted()) << context;
    EXPECT_EQ(a.retired(), b.retired()) << context;
    for (unsigned r = 0; r < isa::num_gprs; ++r) {
        ASSERT_EQ(a.gpr(r), b.gpr(r)) << context << " gpr[" << r << "]";
    }
    if (a.executes_fp() && b.executes_fp()) {
        for (unsigned r = 0; r < isa::num_fprs; ++r) {
            ASSERT_EQ(a.fpr(r), b.fpr(r)) << context << " fpr[" << r << "]";
        }
    }
    EXPECT_EQ(a.console(), b.console()) << context;
    if (exact) {
        EXPECT_EQ(a.cycles(), b.cycles()) << context;
        EXPECT_EQ(a.pc(), b.pc()) << context;
    }
}

sim::checkpoint sample_checkpoint() {
    sim::checkpoint ck;
    ck.engine = "iss";
    ck.level = sim::checkpoint_level::exact;
    ck.arch.pc = 0x1234;
    ck.arch.halted = false;
    for (unsigned r = 0; r < 32; ++r) {
        ck.arch.gpr[r] = 0x1000u + r;
        ck.arch.fpr[r] = 0x2000u + r;
    }
    ck.retired = 777;
    ck.cycles = 999;
    ck.console = "hi\n\x01";
    ck.pages.push_back({0x1000, {1, 2, 3}});
    ck.pages.push_back({0x3000, {9}});
    ck.micro = {0xAA, 0xBB};
    return ck;
}

// ---------------------------------------------------------------------------
// Serialization format.
// ---------------------------------------------------------------------------

TEST(CheckpointFormat, SerializeDeserializeRoundTripsEveryField) {
    const auto ck = sample_checkpoint();
    const auto buf = sim::serialize(ck);
    const auto back = sim::deserialize(buf);
    EXPECT_EQ(back.engine, ck.engine);
    EXPECT_EQ(back.level, ck.level);
    EXPECT_EQ(back.arch.pc, ck.arch.pc);
    EXPECT_EQ(back.arch.halted, ck.arch.halted);
    for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(back.arch.gpr[r], ck.arch.gpr[r]);
        EXPECT_EQ(back.arch.fpr[r], ck.arch.fpr[r]);
    }
    EXPECT_EQ(back.retired, ck.retired);
    EXPECT_EQ(back.cycles, ck.cycles);
    EXPECT_EQ(back.console, ck.console);
    ASSERT_EQ(back.pages.size(), ck.pages.size());
    for (std::size_t i = 0; i < ck.pages.size(); ++i) {
        EXPECT_EQ(back.pages[i].base, ck.pages[i].base);
        EXPECT_EQ(back.pages[i].bytes, ck.pages[i].bytes);
    }
    EXPECT_EQ(back.micro, ck.micro);
}

TEST(CheckpointFormat, SerializationIsByteStable) {
    const auto ck = sample_checkpoint();
    EXPECT_EQ(sim::serialize(ck), sim::serialize(ck));
    EXPECT_EQ(sim::sidecar_json(ck), sim::sidecar_json(ck));
}

TEST(CheckpointFormat, RejectsBadMagicTruncationAndCorruption) {
    const auto buf = sim::serialize(sample_checkpoint());
    // Bad magic.
    auto bad = buf;
    bad[0] ^= 0xFF;
    EXPECT_THROW(sim::deserialize(bad), sim::checkpoint_error);
    // Truncation at every prefix length must throw, never crash or accept.
    for (std::size_t n = 0; n < buf.size(); ++n) {
        EXPECT_THROW(sim::deserialize(buf.data(), n), sim::checkpoint_error) << n;
    }
    // Single-byte corruption anywhere is caught by the checksum trailer.
    for (std::size_t i : {std::size_t{8}, buf.size() / 2, buf.size() - 1}) {
        auto corrupt = buf;
        corrupt[i] ^= 0x40;
        EXPECT_THROW(sim::deserialize(corrupt), sim::checkpoint_error) << i;
    }
    // Trailing garbage is rejected too.
    auto padded = buf;
    padded.push_back(0);
    EXPECT_THROW(sim::deserialize(padded), sim::checkpoint_error);
}

TEST(CheckpointFormat, RejectsUnorderedPages) {
    auto ck = sample_checkpoint();
    std::swap(ck.pages[0], ck.pages[1]);  // descending bases
    const auto buf = sim::serialize(ck);
    EXPECT_THROW(sim::deserialize(buf), sim::checkpoint_error);
}

// A length field set far past the file's size, under a valid checksum,
// must be rejected before the reader allocates for it (a 2^40-byte
// console used to die in std::bad_alloc).
TEST(CheckpointFormat, RejectsHugeLengthFieldsBeforeAllocating) {
    auto ck = sample_checkpoint();
    sim::checkpoint_hart h;
    h.stores.push_back({0x100, 4, 7});
    ck.harts.push_back(h);
    const auto buf = sim::serialize(ck);

    struct field {
        const char* name;
        std::size_t offset;
        unsigned width;
        std::uint64_t value;  ///< what the field holds in `buf`
    };
    // Walk serialize()'s layout: magic, version, level, then the fields.
    std::vector<field> fields;
    std::size_t at = 8 + 4 + 1;
    fields.push_back({"engine", at, 4, ck.engine.size()});
    at += 4 + ck.engine.size() + 4 + 1 + 4 * 64 + 8 + 8;  // pc .. cycles
    fields.push_back({"console", at, 8, ck.console.size()});
    at += 8 + ck.console.size();
    fields.push_back({"page count", at, 4, ck.pages.size()});
    at += 4;
    fields.push_back({"page bytes", at + 4, 4, ck.pages[0].bytes.size()});
    for (const auto& p : ck.pages) at += 8 + p.bytes.size();
    fields.push_back({"micro", at, 8, ck.micro.size()});
    at += 8 + ck.micro.size() + 1 + 8 + 4;  // micro, model, sched rng, hart count
    at += 4 + 1 + 4 * 64 + 8 + 1 + 4;        // hart pc .. reservation
    fields.push_back({"store count", at, 4, ck.harts[0].stores.size()});

    for (const field& f : fields) {
        const auto read = [&](const std::vector<std::uint8_t>& b) {
            std::uint64_t v = 0;
            for (unsigned i = 0; i < f.width; ++i)
                v |= static_cast<std::uint64_t>(b[f.offset + i]) << (8 * i);
            return v;
        };
        ASSERT_EQ(read(buf), f.value) << f.name << ": layout walk is off";
        auto bad = buf;
        const std::uint64_t huge = f.width == 8 ? 1ull << 40 : 0xFFFFFFFFull;
        for (unsigned i = 0; i < f.width; ++i)
            bad[f.offset + i] = static_cast<std::uint8_t>(huge >> (8 * i));
        std::uint64_t sum = 0xcbf29ce484222325ull;  // re-sign the FNV-1a trailer
        for (std::size_t i = 0; i < bad.size() - 8; ++i) {
            sum ^= bad[i];
            sum *= 0x100000001b3ull;
        }
        for (std::size_t i = 0; i < 8; ++i)
            bad[bad.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
        EXPECT_THROW(sim::deserialize(bad), sim::checkpoint_error) << f.name;
    }
}

TEST(CheckpointFormat, FileSaveLoadWritesBinaryAndSidecar) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("ckpt_file_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const auto path = (dir / "a.ckpt").string();
    const auto ck = sample_checkpoint();
    sim::save_checkpoint_file(ck, path);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".json"));
    const auto back = sim::load_checkpoint_file(path);
    EXPECT_EQ(sim::serialize(back), sim::serialize(ck));
    EXPECT_EQ(read_file(path + ".json"), sim::sidecar_json(ck));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointFormat, MemorySnapshotTrimsAndOrdersPages) {
    mem::main_memory m;
    m.write32(0x5000, 0xDEADBEEF);  // later page touched first
    m.write8(0x1003, 7);            // page with trailing zeros after offset 3
    m.write32(0x2000, 0);           // touched but all-zero: omitted
    const auto pages = sim::snapshot_memory(m);
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0].base, 0x1000u);
    EXPECT_EQ(pages[0].bytes.size(), 4u);  // trimmed to last nonzero byte
    EXPECT_EQ(pages[0].bytes[3], 7u);
    EXPECT_EQ(pages[1].base, 0x5000u);
    mem::main_memory back;
    sim::restore_memory(back, pages);
    EXPECT_EQ(back.read32(0x5000), 0xDEADBEEFu);
    EXPECT_EQ(back.read8(0x1003), 7u);
}

// ---------------------------------------------------------------------------
// Round-trip property: save → restore → run equals the uninterrupted run.
// ---------------------------------------------------------------------------

constexpr std::uint64_t k_run_budget = 50'000'000;

/// For every engine that supports checkpointing: run to `save_at`
/// retirements, save, restore into a fresh engine and run both the saver
/// and the restored engine to completion.  All three end states (straight
/// run, saver-after-save, restored run) must agree architecturally.
void check_round_trip(const isa::program_image& img, std::uint64_t save_at,
                      const std::string& context) {
    auto& reg = sim::engine_registry::instance();
    const bool fp = sim::program_uses_fp(img);
    for (const auto& name : reg.names()) {
        auto straight = reg.create(name, {});
        if (!straight->supports_checkpoint()) continue;
        if (fp && !straight->executes_fp()) continue;
        const std::string ctx = context + " engine=" + name;
        straight->load(img);
        straight->run(k_run_budget);
        ASSERT_TRUE(straight->halted()) << ctx;

        auto saver = reg.create(name, {});
        saver->load(img);
        saver->run_until_retired(save_at);
        const sim::checkpoint ck = saver->save_state();
        EXPECT_EQ(ck.engine, name) << ctx;
        EXPECT_EQ(ck.retired, saver->retired()) << ctx;
        // Determinism: saving twice from the same state is byte-identical.
        EXPECT_EQ(sim::serialize(ck), sim::serialize(saver->save_state())) << ctx;

        // Saving must not disturb the saver.
        saver->run(k_run_budget);
        expect_state_equal(*straight, *saver, false, ctx + " (saver)");

        auto restored = reg.create(name, {});
        restored->restore_state(ck);
        EXPECT_EQ(restored->retired(), ck.retired) << ctx;
        restored->run(k_run_budget);
        const bool exact =
            straight->checkpoint_support() == sim::checkpoint_level::exact;
        expect_state_equal(*straight, *restored, exact, ctx + " (restored)");
    }
}

TEST(CheckpointRoundTrip, EveryEngineOnFixedPrograms) {
    check_round_trip(assemble_example("sum100.s"), 150, "sum100");
    check_round_trip(assemble_example("fib.s"), 75, "fib");
}

TEST(CheckpointRoundTrip, FpProgramOnFpEngines) {
    check_round_trip(assemble_example("fp_dot.s"), 40, "fp_dot");
}

TEST(CheckpointRoundTrip, RandprogSweep) {
    for (const std::uint64_t seed : {3ull, 5ull, 9ull}) {
        workloads::randprog_options opt;
        opt.seed = seed;
        const auto img = workloads::make_random_program(opt);
        // Pick the midpoint of the program's own retirement count so the
        // save lands mid-run regardless of the seed.
        auto probe = sim::make_engine("iss", {});
        probe->load(img);
        probe->run(k_run_budget);
        ASSERT_TRUE(probe->halted());
        check_round_trip(img, probe->retired() / 2,
                         "randprog seed=" + std::to_string(seed));
    }
}

TEST(CheckpointRoundTrip, SaveBeforeRunAndAfterHalt) {
    const auto img = assemble_example("sum100.s");
    for (const std::string name : {"iss", "sarm", "p750"}) {
        auto straight = sim::make_engine(name, {});
        straight->load(img);
        straight->run(k_run_budget);

        // Save at retirement 0 (nothing run yet).
        auto fresh = sim::make_engine(name, {});
        fresh->load(img);
        auto restored = sim::make_engine(name, {});
        restored->restore_state(fresh->save_state());
        restored->run(k_run_budget);
        expect_state_equal(*straight, *restored, false, name + " save@0");

        // Save after halt: the restored engine must stay halted and agree.
        auto after = sim::make_engine(name, {});
        after->restore_state(straight->save_state());
        EXPECT_TRUE(after->halted()) << name;
        after->run(k_run_budget);  // must be a no-op
        expect_state_equal(*straight, *after, false, name + " save@halt");
    }
}

// ---------------------------------------------------------------------------
// Cross-engine warm boot: an ISS architectural checkpoint seeds any engine.
// ---------------------------------------------------------------------------

TEST(CheckpointCrossEngine, IssCheckpointWarmBootsEveryEngine) {
    const auto img = assemble_example("sum100.s");
    auto iss = sim::make_engine("iss", {});
    iss->load(img);
    iss->run_until_retired(120);
    const sim::checkpoint ck = iss->save_state();
    iss->run(k_run_budget);
    ASSERT_TRUE(iss->halted());

    auto& reg = sim::engine_registry::instance();
    for (const auto& name : reg.names()) {
        if (name == "iss") continue;
        auto eng = reg.create(name, {});
        if (!eng->supports_checkpoint()) continue;
        eng->restore_state(ck);
        EXPECT_EQ(eng->retired(), ck.retired) << name;
        eng->run(k_run_budget);
        expect_state_equal(*iss, *eng, false, "warm boot " + name);
    }
}

// ---------------------------------------------------------------------------
// Golden-state regressions: the committed checkpoints under tests/golden/
// must be reproduced byte-for-byte by today's build (save point = half of
// the program's total ISS retirement count; see
// scripts/regen_golden_checkpoints.sh).
// ---------------------------------------------------------------------------

TEST(CheckpointGolden, CommittedCheckpointsAreByteStable) {
    for (const std::string name : {"sum100", "fib", "sieve", "fp_dot"}) {
        const auto img = assemble_example(name + ".s");
        auto full = sim::make_engine("iss", {});
        full->load(img);
        full->run(k_run_budget);
        ASSERT_TRUE(full->halted()) << name;

        auto eng = sim::make_engine("iss", {});
        eng->load(img);
        eng->run_until_retired(full->retired() / 2);
        const sim::checkpoint ck = eng->save_state();
        const auto buf = sim::serialize(ck);

        const std::string base = std::string(OSM_GOLDEN_DIR) + "/" + name + ".ckpt";
        const std::string committed = read_file(base);
        ASSERT_FALSE(committed.empty()) << base << " missing — run "
                                        << "scripts/regen_golden_checkpoints.sh";
        EXPECT_EQ(committed,
                  std::string(reinterpret_cast<const char*>(buf.data()), buf.size()))
            << base;
        EXPECT_EQ(read_file(base + ".json"), sim::sidecar_json(ck)) << base;
        // And the committed file must still load and resume correctly.
        auto resumed = sim::make_engine("iss", {});
        resumed->restore_state(sim::load_checkpoint_file(base));
        resumed->run(k_run_budget);
        expect_state_equal(*full, *resumed, true, "golden " + name);
    }
}

// ---------------------------------------------------------------------------
// Multi-hart checkpoints (format v2).
// ---------------------------------------------------------------------------

/// Per-hart architectural equality between two mh-iss engines.
void expect_harts_equal(const sim::engine& a, const sim::engine& b,
                        const std::string& context) {
    ASSERT_EQ(a.harts(), b.harts()) << context;
    EXPECT_EQ(a.console(), b.console()) << context;
    EXPECT_EQ(a.retired(), b.retired()) << context;
    for (unsigned h = 0; h < a.harts(); ++h) {
        const std::string ctx = context + " hart " + std::to_string(h);
        EXPECT_EQ(a.hart_halted(h), b.hart_halted(h)) << ctx;
        EXPECT_EQ(a.hart_pc(h), b.hart_pc(h)) << ctx;
        EXPECT_EQ(a.hart_retired(h), b.hart_retired(h)) << ctx;
        for (unsigned r = 0; r < isa::num_gprs; ++r) {
            ASSERT_EQ(a.hart_gpr(h, r), b.hart_gpr(h, r)) << ctx << " gpr[" << r << "]";
        }
    }
}

// Save mid-run on the multi-hart ISS (TSO, so store buffers are live),
// restore into a fresh engine, and run both to completion: every hart's
// final state must match the uninterrupted run exactly.  The schedule-RNG
// state rides in the checkpoint, so the restored run replays the same
// interleaving the saver would have taken.
TEST(CheckpointMultiHart, RoundTripMatchesStraightRunPerHart) {
    workloads::randprog_options po;
    po.seed = 11;
    po.harts = 2;
    po.shared_contention = true;
    po.lrsc_loops = true;
    const auto img = workloads::make_random_program(po);

    for (const auto model : {mem::memory_model::sc, mem::memory_model::tso}) {
        sim::engine_config cfg;
        cfg.harts = po.harts;
        cfg.memory_model = model;
        cfg.sched_seed = 77;
        const std::string ctx =
            std::string("mh round trip ") + mem::memory_model_name(model);

        auto straight = sim::make_engine("mh-iss", cfg);
        straight->load(img);
        straight->run(k_run_budget);
        ASSERT_TRUE(straight->halted()) << ctx;

        auto saver = sim::make_engine("mh-iss", cfg);
        saver->load(img);
        saver->run(straight->retired() / 2);
        const sim::checkpoint ck = saver->save_state();
        // Byte-determinism of the save itself.
        EXPECT_EQ(sim::serialize(ck), sim::serialize(saver->save_state())) << ctx;
        // The save carries every hart and the serialized form round-trips.
        ASSERT_EQ(ck.harts.size(), po.harts) << ctx;
        const auto back = sim::deserialize(sim::serialize(ck));
        EXPECT_EQ(back.harts.size(), ck.harts.size()) << ctx;
        EXPECT_EQ(back.sched_rng, ck.sched_rng) << ctx;
        EXPECT_EQ(back.memory_model, ck.memory_model) << ctx;

        // Saving must not disturb the saver.
        saver->run(k_run_budget);
        expect_harts_equal(*straight, *saver, ctx + " (saver)");

        auto restored = sim::make_engine("mh-iss", cfg);
        restored->restore_state(sim::deserialize(sim::serialize(ck)));
        restored->run(k_run_budget);
        expect_harts_equal(*straight, *restored, ctx + " (restored)");
    }
}

// Under TSO a mid-run checkpoint can carry buffered (uncommitted) stores;
// those must survive the serialize/deserialize round trip entry for entry.
TEST(CheckpointMultiHart, StoreBufferContentsSurviveSerialization) {
    workloads::randprog_options po;
    po.seed = 7;
    po.harts = 4;
    po.shared_contention = true;
    const auto img = workloads::make_random_program(po);

    sim::engine_config cfg;
    cfg.harts = po.harts;
    cfg.memory_model = mem::memory_model::tso;
    cfg.sched_seed = 3;
    auto eng = sim::make_engine("mh-iss", cfg);
    eng->load(img);

    // Scan save points until one catches a non-empty store buffer (the
    // schedule is deterministic, so this loop is too).
    bool saw_buffered = false;
    for (int i = 0; i < 400 && !eng->halted(); ++i) {
        eng->run(1);
        const sim::checkpoint ck = eng->save_state();
        std::size_t buffered = 0;
        for (const auto& h : ck.harts) buffered += h.stores.size();
        if (buffered == 0) continue;
        saw_buffered = true;
        const auto back = sim::deserialize(sim::serialize(ck));
        ASSERT_EQ(back.harts.size(), ck.harts.size());
        for (std::size_t h = 0; h < ck.harts.size(); ++h) {
            ASSERT_EQ(back.harts[h].stores.size(), ck.harts[h].stores.size()) << h;
            for (std::size_t s = 0; s < ck.harts[h].stores.size(); ++s) {
                EXPECT_EQ(back.harts[h].stores[s].addr, ck.harts[h].stores[s].addr);
                EXPECT_EQ(back.harts[h].stores[s].size, ck.harts[h].stores[s].size);
                EXPECT_EQ(back.harts[h].stores[s].data, ck.harts[h].stores[s].data);
            }
        }
        break;
    }
    EXPECT_TRUE(saw_buffered)
        << "no save point caught a buffered store; TSO buffers never filled";
}

// Restoring a multi-hart checkpoint into a mismatched engine must fail
// loudly, never silently drop harts or buffered stores.
TEST(CheckpointMultiHart, MismatchedRestoreIsRejected) {
    workloads::randprog_options po;
    po.seed = 5;
    po.harts = 2;
    const auto img = workloads::make_random_program(po);

    sim::engine_config cfg;
    cfg.harts = 2;
    cfg.memory_model = mem::memory_model::tso;
    auto eng = sim::make_engine("mh-iss", cfg);
    eng->load(img);
    eng->run(50);
    const sim::checkpoint ck = eng->save_state();

    // Wrong hart count.
    sim::engine_config cfg4 = cfg;
    cfg4.harts = 4;
    EXPECT_THROW(sim::make_engine("mh-iss", cfg4)->restore_state(ck),
                 sim::checkpoint_error);
    // Wrong memory model.
    sim::engine_config cfg_sc = cfg;
    cfg_sc.memory_model = mem::memory_model::sc;
    EXPECT_THROW(sim::make_engine("mh-iss", cfg_sc)->restore_state(ck),
                 sim::checkpoint_error);
    // Single-hart engines refuse a 2-hart checkpoint.
    EXPECT_THROW(sim::make_engine("iss", {})->restore_state(ck),
                 sim::checkpoint_error);
}

// The v2 format bump is a hard gate: a file claiming the old version is
// rejected with a clear error naming the version, not misparsed.
TEST(CheckpointMultiHart, OldFormatVersionIsRejectedWithClearError) {
    auto buf = sim::serialize(sample_checkpoint());
    // Rewrite the version field (u32 after the 8-byte magic) to 1 and
    // recompute the FNV-1a trailer so only the version check can fire.
    buf[8] = 1;
    buf[9] = buf[10] = buf[11] = 0;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < buf.size() - 8; ++i) {
        h ^= buf[i];
        h *= 0x100000001b3ull;
    }
    for (std::size_t i = 0; i < 8; ++i) {
        buf[buf.size() - 8 + i] = static_cast<std::uint8_t>(h >> (8 * i));
    }
    try {
        sim::deserialize(buf);
        FAIL() << "version-1 checkpoint was accepted";
    } catch (const sim::checkpoint_error& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 1"),
                  std::string::npos)
            << "unexpected error text: " << e.what();
    }
}

// ---------------------------------------------------------------------------
// Retirement-lockstep diffing.
// ---------------------------------------------------------------------------

TEST(Lockstep, CleanProgramAgreesOnEveryEngine) {
    const auto img = assemble_example("sum100.s");
    for (const auto& name : sim::engine_registry::instance().names_for_isa("vr32")) {
        if (name == "iss") continue;
        sim::lockstep_options opt;
        opt.interval = 64;
        const auto r = sim::lockstep_diff(name, img, opt);
        ASSERT_TRUE(r.ran) << name;
        EXPECT_FALSE(r.diverged) << name << ": " << r.div.to_string();
        EXPECT_FALSE(r.hit_budget) << name;
        EXPECT_GT(r.compares, 1u) << name;
    }
}

TEST(Lockstep, SkipsFpProgramOnIntegerOnlyEngine) {
    const auto r = sim::lockstep_diff("smt", assemble_example("fp_dot.s"), {});
    EXPECT_FALSE(r.ran);
    EXPECT_FALSE(r.skip_reason.empty());
}

// ---------------------------------------------------------------------------
// Deliberately broken engines (KEEP these tests last: they mutate the
// process-wide registry; ctest runs each discovered test in its own
// process, so the mutation is invisible to the tests above).
// ---------------------------------------------------------------------------

/// ISS wrapper that corrupts the *observed* x10 once the console is
/// non-empty, i.e. from the retirement of the first print syscall onward.
/// Forwards checkpointing to the inner ISS so lockstep's checkpoint
/// bisection engages.
class broken_after_print_engine final : public sim::engine {
public:
    explicit broken_after_print_engine(const sim::engine_config& cfg)
        : inner_(sim::make_engine("iss", cfg)) {}
    std::string_view name() const override { return "brk_ck"; }
    void load(const isa::program_image& img) override { inner_->load(img); }
    std::uint64_t run(std::uint64_t max_cycles) override {
        return inner_->run(max_cycles);
    }
    bool halted() const override { return inner_->halted(); }
    std::uint32_t gpr(unsigned r) const override {
        const bool armed = !inner_->console().empty();
        return inner_->gpr(r) ^ ((armed && r == 10) ? 0xdead0000u : 0u);
    }
    std::uint32_t fpr(unsigned r) const override { return inner_->fpr(r); }
    std::uint32_t pc() const override { return inner_->pc(); }
    const std::string& console() const override { return inner_->console(); }
    std::uint64_t cycles() const override { return inner_->cycles(); }
    std::uint64_t retired() const override { return inner_->retired(); }
    bool models_timing() const override { return false; }
    sim::checkpoint_level checkpoint_support() const override {
        return inner_->checkpoint_support();
    }
    sim::checkpoint save_state() const override { return inner_->save_state(); }
    void restore_state(const sim::checkpoint& ck) override {
        inner_->restore_state(ck);
    }

private:
    std::unique_ptr<sim::engine> inner_;
};

void register_broken_engine() {
    sim::engine_registry::instance().add(
        {"brk_ck", "ISS wrapper corrupting x10 after console output (test only)",
         [](const sim::engine_config& cfg) {
             return std::make_unique<broken_after_print_engine>(cfg);
         }});
}

TEST(LockstepBroken, BisectsFirstDivergentRetirement) {
    register_broken_engine();
    // 10 filler adds, then the first print (retirement #11) arms the
    // corruption; the bisection must land exactly there.
    std::string src;
    for (int i = 0; i < 10; ++i) src += "addi a3, a3, 1\n";
    src +=
        "syscall 2\n"   // print: console becomes non-empty at retirement 11
        "addi a4, a4, 2\n"
        "addi a4, a4, 2\n"
        "syscall 0\n";
    const auto img = isa::assemble(src);

    sim::lockstep_options opt;
    opt.interval = 4;  // agreed boundaries at 4 and 8 precede the divergence
    const auto r = sim::lockstep_diff("brk_ck", img, opt);
    ASSERT_TRUE(r.ran);
    ASSERT_TRUE(r.diverged);
    EXPECT_EQ(r.div.kind, "gpr");
    EXPECT_EQ(r.div.index, 10u);
    ASSERT_TRUE(r.located);
    EXPECT_TRUE(r.used_checkpoint_bisect);
    EXPECT_EQ(r.first_divergent_retired, 11u);
    EXPECT_GT(r.restores, 0u);
}

TEST(LockstepBroken, RerunBisectionFindsTheSameRetirement) {
    register_broken_engine();
    std::string src;
    for (int i = 0; i < 10; ++i) src += "addi a3, a3, 1\n";
    src += "syscall 2\nsyscall 0\n";
    const auto img = isa::assemble(src);

    // Force the load-from-zero fallback by divergence inside the first
    // interval (no agreed boundary was ever checkpointed).
    sim::lockstep_options opt;
    opt.interval = 4096;
    const auto r = sim::lockstep_diff("brk_ck", img, opt);
    ASSERT_TRUE(r.ran);
    ASSERT_TRUE(r.diverged);
    ASSERT_TRUE(r.located);
    EXPECT_FALSE(r.used_checkpoint_bisect);
    EXPECT_EQ(r.first_divergent_retired, 11u);
}

TEST(MinimizeBroken, CheckpointRevalidationMatchesFullReruns) {
    register_broken_engine();
    workloads::randprog_options ropt;
    ropt.seed = 33;
    const auto img = workloads::make_random_program(ropt);

    fuzz::minimize_options full;
    full.engines = {"iss", "brk_ck"};
    const auto a = fuzz::minimize_divergence(img, full);
    ASSERT_TRUE(a.was_divergent);

    fuzz::minimize_options ck = full;
    ck.checkpoint_revalidate = true;
    ck.checkpoint_interval = 64;
    const auto b = fuzz::minimize_divergence(img, ck);
    ASSERT_TRUE(b.was_divergent);
    EXPECT_TRUE(b.used_checkpoints);

    // Same reproducer either way: identical minimized program and verdict.
    EXPECT_EQ(a.minimized_words, b.minimized_words);
    EXPECT_TRUE(images_equal(a.image, b.image));
    EXPECT_EQ(a.first.engine, b.first.engine);
    EXPECT_EQ(a.first.kind, b.first.kind);
    // And the checkpointed pass pins down where the divergence begins.
    EXPECT_TRUE(b.located);
    EXPECT_GT(b.first_divergent_retired, 0u);
}

}  // namespace
