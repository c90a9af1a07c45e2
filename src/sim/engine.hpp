// Unified execution-engine interface.
//
// The paper's central claim is retargetability: one OSM substrate, many
// processor models.  This layer is the framework-side half of that claim —
// every execution engine (functional ISS, OSM models, hand-coded and
// port/wire baselines, the SMT pipeline, the OSM-DL elaborated machine)
// is driven through one abstract `sim::engine` contract: load an image,
// run under a cycle budget, observe architectural state (GPR/FPR/PC),
// console output, halt status and retirement/cycle counters, and emit a
// structured `stats::report` with a stable common schema.  Tools, tests
// and benches program against this interface and pick concrete engines
// from the name-keyed registry (registry.hpp), so adding an engine makes
// it runnable, diffable and benchable everywhere at once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "isa/program.hpp"
#include "sim/checkpoint.hpp"
#include "stats/stats.hpp"

namespace osm::core {
class director;
class sim_kernel;
}  // namespace osm::core

namespace osm::sim {

/// Engine-independent construction knobs.  Each adapter maps the subset
/// that exists in its model's native config struct and ignores the rest
/// (the ISS has no forwarding network; the P750 always forwards).
struct engine_config {
    bool forwarding = true;        ///< bypass network (sarm/hw/smt)
    bool decode_cache = true;      ///< pre-decoded (pc, word)-tagged cache
    unsigned decode_cache_entries = 4096;
    /// Translated-basic-block cache + threaded dispatch (ISS fast path).
    bool block_cache = true;
    /// Hart count (multi-hart engines only; every single-hart engine
    /// ignores it, so harts=1 configurations are bit-identical to before
    /// the knob existed).
    unsigned harts = 1;
    /// Shared-memory consistency model for multi-hart engines.
    mem::memory_model memory_model = mem::memory_model::sc;
    /// Scheduler PRNG seed for multi-hart engines: the interleaving (and
    /// therefore the whole run) is a pure function of it.
    std::uint64_t sched_seed = 1;
};

/// Abstract execution engine: the adapter contract.
///
/// Lifecycle: construct (owns its own main memory), `load()` an image,
/// `run()` under a budget, then read state.  `load()` may be called again
/// on the same instance: the engine then behaves exactly like a freshly
/// constructed one given the new image.
class engine {
public:
    virtual ~engine();

    /// Registry key ("iss", "sarm", ...).
    virtual std::string_view name() const = 0;

    /// Load `img` into the engine's cleared memory and reset every piece of
    /// state (architectural, timing, counters), whatever ran before.
    virtual void load(const isa::program_image& img) = 0;

    /// Simulate until halt or `max_cycles` (instructions for the untimed
    /// ISS).  Returns cycles (steps) executed by this call.
    virtual std::uint64_t run(std::uint64_t max_cycles) = 0;

    // ---- architectural state ----
    virtual bool halted() const = 0;
    virtual std::uint32_t gpr(unsigned r) const = 0;
    virtual std::uint32_t fpr(unsigned r) const = 0;
    /// Next-fetch pc (informational: pipelined engines legitimately differ
    /// here after halt because of speculative fetch).
    virtual std::uint32_t pc() const = 0;
    virtual const std::string& console() const = 0;

    // ---- counters ----
    virtual std::uint64_t cycles() const = 0;
    virtual std::uint64_t retired() const = 0;
    double ipc() const {
        const auto c = cycles();
        return c == 0 ? 0.0 : static_cast<double>(retired()) / static_cast<double>(c);
    }

    // ---- capabilities ----
    /// Guest instruction set this engine executes.  Engines with different
    /// ISAs run different programs, so the differential harnesses only
    /// compare engines whose isa() strings match.
    virtual std::string_view isa() const { return "vr32"; }
    /// False for purely functional engines whose "cycles" are just retired
    /// instructions (the ISS); their timing must not be compared.
    virtual bool models_timing() const { return true; }
    /// False for engines without an FP register file (the SMT pipeline);
    /// FP programs are skipped / FPRs not compared for them.
    virtual bool executes_fp() const { return true; }
    /// True for engines that execute the atomic/ordering extension
    /// (lr.w/sc.w/amo*/fence); programs using it are skipped on the rest.
    virtual bool executes_amo() const { return false; }

    // ---- multi-hart view ----
    /// Number of harts this engine instance simulates (1 for every
    /// single-hart engine; the accessors below default to the single-hart
    /// state so callers can be hart-generic).
    virtual unsigned harts() const { return 1; }
    virtual std::uint32_t hart_gpr(unsigned /*hart*/, unsigned r) const { return gpr(r); }
    virtual std::uint32_t hart_fpr(unsigned /*hart*/, unsigned r) const { return fpr(r); }
    /// Next-fetch pc of one hart.
    virtual std::uint32_t hart_pc(unsigned /*hart*/) const { return pc(); }
    virtual std::uint64_t hart_retired(unsigned /*hart*/) const { return retired(); }
    virtual bool hart_halted(unsigned /*hart*/) const { return halted(); }

    // ---- checkpoint/restore ----
    /// What restore_state() guarantees: `exact` resumes bit-exactly
    /// (counters included), `architectural` resumes from the quiesced
    /// retirement boundary (registers/memory/console/retired match; a
    /// timing engine re-fills its pipeline, so cycle counts restart),
    /// `none` means save/restore throw.
    virtual checkpoint_level checkpoint_support() const { return checkpoint_level::none; }
    bool supports_checkpoint() const { return checkpoint_support() != checkpoint_level::none; }

    /// Snapshot the current state.  The engine itself is not disturbed:
    /// it continues from where it was.  Throws checkpoint_error when
    /// checkpoint_support() is none.
    virtual checkpoint save_state() const;

    /// Replace all state with `ck` (engine name need not match: any
    /// engine can warm-boot from another's architectural checkpoint).
    /// Throws checkpoint_error when unsupported or `ck` is unusable.
    virtual void restore_state(const checkpoint& ck);

    /// Step in 1-cycle increments until `retired() >= target` or halt.
    /// Returns retired() — superscalar engines may overshoot `target` by
    /// up to their retire bandwidth minus one.
    std::uint64_t run_until_retired(std::uint64_t target);

    /// Uniform statistics report.  Every engine's report carries the same
    /// core keys — engine.name, run.cycles, run.retired, run.ipc,
    /// run.halted, run.console_bytes — plus engine-specific sections, so
    /// `osm-run --json` has one stable schema regardless of engine.
    stats::report stats_report() const;

    /// OSM-framework hooks for the pipeline tracer; null for engines not
    /// built on the director/kernel (iss, hw, port).  Valid until the next
    /// load() or restore_state(), either of which may rebuild the model.
    virtual core::director* director() { return nullptr; }
    virtual core::sim_kernel* kernel() { return nullptr; }

protected:
    /// Engine-specific report body; the uniform core keys are stamped on
    /// top by stats_report().
    virtual stats::report make_report() const;
};

}  // namespace osm::sim
