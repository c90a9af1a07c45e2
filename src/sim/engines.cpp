// Adapters binding the built-in execution engines to the unified
// sim::engine contract, plus their registry registration.  Eight VR32
// engines (mh-iss among them), plus the two PPC32 front-end engines
// generated from src/isa/specs/ppc32.spec (isa() == "ppc32": the harnesses
// only diff them against each other).
//
// Each adapter owns its model *and* the main memory behind it, so an
// engine instance is a self-contained machine: tools and tests never
// juggle per-engine memory/config plumbing again.  The six single-hart
// timing models share one adapter, timing_engine<Traits>; a new timing
// model needs only a traits struct and a registry line (docs/engines.md).
//
// Checkpointing: the ISS snapshots directly (level `exact`).  The timing
// engines snapshot at the quiesced retirement boundary (level
// `architectural`) via *golden replay*: every engine retires the same
// architectural trajectory (the repo's differential-test invariant, with
// syscalls executing at retirement), so a fresh internal ISS replayed to
// the engine's retired() count reconstructs its registers, memory and
// console without having to drain or decode in-flight pipeline state
// (speculative stores, half-filled latches).  Restoring re-emplaces the
// model so caches, queues and kernels start pristine, then seeds the
// architectural state; cycle counts restart at the boundary.
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "adl/adl_sarm.hpp"
#include "baseline/hardwired_sarm.hpp"
#include "baseline/port_ppc.hpp"
#include "isa/iss.hpp"
#include "isa/mh_iss.hpp"
#include "mem/main_memory.hpp"
#include "ppc750/ppc750.hpp"
#include "ppc32/iss.hpp"
#include "sarm/sarm.hpp"
#include "sim/registry.hpp"
#include "smt/smt.hpp"

namespace osm::sim {
namespace {

/// Golden replay: reconstruct the architectural state at retirement
/// boundary `retired` with a fresh ISS, starting either from the program
/// image (cold) or from the checkpoint the engine itself was restored
/// from (warm).  Valid because all engines share one architectural
/// trajectory and syscalls execute at retirement, so the replayed
/// console/registers/memory are exactly the engine's at that boundary.
checkpoint replay_architectural(std::string_view engine_name, const isa::program_image* img,
                                const checkpoint* base, std::uint64_t retired,
                                std::uint64_t cycles) {
    checkpoint ck;
    ck.engine = std::string(engine_name);
    ck.level = checkpoint_level::architectural;
    ck.retired = retired;
    ck.cycles = cycles;

    mem::main_memory m;
    isa::iss ref(m, false);
    if (base != nullptr) {
        restore_memory(m, base->pages);
        ref.restore_arch(base->arch, base->retired, base->console);
    } else if (img != nullptr) {
        ref.load(*img);
    } else {
        throw checkpoint_error(std::string(engine_name) + ": save_state before load");
    }
    if (retired < ref.instret())
        throw checkpoint_error(std::string(engine_name) + ": retired count behind base checkpoint");
    ref.run(retired - ref.instret());
    if (ref.instret() != retired)
        throw checkpoint_error(std::string(engine_name) + ": golden replay halted early");

    ck.arch = ref.state();
    ck.console = ref.host().console();
    ck.pages = snapshot_memory(m);
    return ck;
}

/// A one-instruction-free image whose only effect is setting the entry pc;
/// loaded into a restored model so its fetch engine starts at the boundary.
isa::program_image resume_stub(std::uint32_t pc) {
    isa::program_image stub;
    stub.entry = pc;
    return stub;
}

/// Single-hart engines cannot adopt a genuinely multi-hart snapshot (harts
/// 1..N-1 would be silently dropped); reject it up front.
void require_single_hart(const checkpoint& ck, std::string_view engine_name) {
    if (ck.harts.size() > 1)
        throw checkpoint_error(std::string(engine_name) +
                               ": checkpoint holds " + std::to_string(ck.harts.size()) +
                               " harts; restore it into a multi-hart engine");
    if (!ck.harts.empty() && !ck.harts[0].stores.empty())
        throw checkpoint_error(std::string(engine_name) +
                               ": checkpoint carries uncommitted buffered stores; "
                               "only a store-buffer (TSO) engine can adopt them");
}

/// Functional ISS: untimed golden model ("cycles" = retired instructions).
class iss_engine final : public engine {
public:
    explicit iss_engine(const engine_config& cfg)
        : sim_(mem_, cfg.decode_cache, cfg.block_cache) {}

    std::string_view name() const override { return "iss"; }
    void load(const isa::program_image& img) override {
        mem_.clear();
        sim_.load(img);
    }
    std::uint64_t run(std::uint64_t max_cycles) override { return sim_.run(max_cycles); }
    bool halted() const override { return sim_.state().halted; }
    std::uint32_t gpr(unsigned r) const override { return sim_.state().gpr[r]; }
    std::uint32_t fpr(unsigned r) const override { return sim_.state().fpr[r]; }
    std::uint32_t pc() const override { return sim_.state().pc; }
    const std::string& console() const override { return sim_.host().console(); }
    std::uint64_t cycles() const override { return sim_.instret(); }
    std::uint64_t retired() const override { return sim_.instret(); }
    bool models_timing() const override { return false; }
    bool executes_amo() const override { return true; }

    checkpoint_level checkpoint_support() const override { return checkpoint_level::exact; }
    checkpoint save_state() const override {
        checkpoint ck;
        ck.engine = std::string(name());
        ck.level = checkpoint_level::exact;
        ck.arch = sim_.state();
        ck.retired = sim_.instret();
        ck.cycles = sim_.instret();
        ck.console = sim_.host().console();
        ck.pages = snapshot_memory(mem_);
        // One hart record so an in-flight LR/SC reservation survives the
        // round trip (harts[0] mirrors arch/retired by the v2 contract).
        checkpoint_hart h0;
        h0.arch = sim_.state();
        h0.retired = sim_.instret();
        h0.resv_valid = sim_.reservation().valid;
        h0.resv_addr = sim_.reservation().addr;
        ck.harts.push_back(std::move(h0));
        return ck;
    }
    void restore_state(const checkpoint& ck) override {
        require_single_hart(ck, name());
        mem_.clear();
        restore_memory(mem_, ck.pages);
        sim_.restore_arch(ck.arch, ck.retired, ck.console);
        if (ck.harts.size() == 1)
            sim_.reservation() = {ck.harts[0].resv_addr, ck.harts[0].resv_valid};
    }

protected:
    stats::report make_report() const override { return sim_.make_report(); }

private:
    mem::main_memory mem_;
    isa::iss sim_;
};

/// Multi-hart functional ISS: N harts over SC/TSO shared memory under a
/// seeded deterministic scheduler (isa/mh_iss.hpp).  A 1-hart instance is
/// an ordinary VR32 engine and joins every differential sweep; with
/// harts() > 1 the differential harnesses skip it and the litmus harness
/// (fuzz/litmus.hpp) is its oracle instead.
class mh_iss_engine final : public engine {
public:
    explicit mh_iss_engine(const engine_config& cfg)
        : cfg_(cfg),
          sim_(mem_, cfg.harts, cfg.memory_model, cfg.sched_seed, cfg.decode_cache) {}

    std::string_view name() const override { return "mh-iss"; }
    void load(const isa::program_image& img) override {
        mem_.clear();
        sim_.load(img);
    }
    std::uint64_t run(std::uint64_t max_cycles) override { return sim_.run(max_cycles); }
    bool halted() const override { return sim_.all_halted(); }
    std::uint32_t gpr(unsigned r) const override { return sim_.state(0).gpr[r]; }
    std::uint32_t fpr(unsigned r) const override { return sim_.state(0).fpr[r]; }
    std::uint32_t pc() const override { return sim_.state(0).pc; }
    const std::string& console() const override { return sim_.host().console(); }
    std::uint64_t cycles() const override { return sim_.total_retired(); }
    std::uint64_t retired() const override { return sim_.total_retired(); }
    bool models_timing() const override { return false; }
    bool executes_amo() const override { return true; }

    unsigned harts() const override { return sim_.harts(); }
    std::uint32_t hart_gpr(unsigned h, unsigned r) const override {
        return sim_.state(h).gpr[r];
    }
    std::uint32_t hart_fpr(unsigned h, unsigned r) const override {
        return sim_.state(h).fpr[r];
    }
    std::uint32_t hart_pc(unsigned h) const override { return sim_.state(h).pc; }
    std::uint64_t hart_retired(unsigned h) const override { return sim_.instret(h); }
    bool hart_halted(unsigned h) const override { return sim_.state(h).halted; }

    checkpoint_level checkpoint_support() const override { return checkpoint_level::exact; }
    checkpoint save_state() const override {
        checkpoint ck;
        ck.engine = std::string(name());
        ck.level = checkpoint_level::exact;
        ck.arch = sim_.state(0);
        ck.retired = sim_.total_retired();
        ck.cycles = sim_.total_retired();
        ck.console = sim_.host().console();
        ck.pages = snapshot_memory(mem_);
        ck.memory_model = static_cast<std::uint8_t>(sim_.model());
        ck.sched_rng = sim_.sched_rng().state();
        const auto& shared = sim_.shared();
        for (unsigned h = 0; h < sim_.harts(); ++h) {
            checkpoint_hart rec;
            rec.arch = sim_.state(h);
            rec.retired = sim_.instret(h);
            rec.resv_valid = shared.hart_reservation(h).valid;
            rec.resv_addr = shared.hart_reservation(h).addr;
            const auto& buf = shared.buffer(h);
            rec.stores.assign(buf.begin(), buf.end());
            ck.harts.push_back(std::move(rec));
        }
        return ck;
    }
    void restore_state(const checkpoint& ck) override {
        if (ck.harts.size() != sim_.harts())
            throw checkpoint_error("mh-iss: checkpoint holds " +
                                   std::to_string(ck.harts.size()) + " harts, engine has " +
                                   std::to_string(sim_.harts()));
        if (static_cast<mem::memory_model>(ck.memory_model) != sim_.model())
            throw checkpoint_error("mh-iss: checkpoint memory model mismatch");
        mem_.clear();
        restore_memory(mem_, ck.pages);
        for (unsigned h = 0; h < sim_.harts(); ++h) {
            const checkpoint_hart& rec = ck.harts[h];
            sim_.restore_hart(h, rec.arch, rec.retired);
            sim_.shared().set_buffer(h, rec.stores);
            sim_.shared().hart_reservation(h) = {rec.resv_addr & ~3u, rec.resv_valid};
        }
        sim_.host().seed(ck.console);
        sim_.sched_rng().set_state(ck.sched_rng != 0 ? ck.sched_rng : cfg_.sched_seed);
    }

protected:
    stats::report make_report() const override {
        stats::report rep;
        rep.put("mh", "harts", static_cast<std::uint64_t>(sim_.harts()));
        rep.put("mh", "memory_model", std::string(mem::memory_model_name(sim_.model())));
        rep.put("mh", "sched_seed", cfg_.sched_seed);
        for (unsigned h = 0; h < sim_.harts(); ++h) {
            rep.put("mh", "hart" + std::to_string(h) + ".retired", sim_.instret(h));
        }
        return rep;
    }

private:
    engine_config cfg_;
    mem::main_memory mem_;
    isa::mh_iss sim_;
};

sarm::sarm_config to_sarm_config(const engine_config& cfg) {
    sarm::sarm_config c;
    c.forwarding = cfg.forwarding;
    c.decode_cache = cfg.decode_cache;
    c.decode_cache_entries = cfg.decode_cache_entries;
    return c;
}

ppc750::p750_config to_p750_config(const engine_config& cfg) {
    ppc750::p750_config c;
    c.decode_cache = cfg.decode_cache;
    c.decode_cache_entries = cfg.decode_cache_entries;
    return c;
}

/// How timing_engine talks to a single-hart timing model.  The defaults
/// fit the models with a load(img)/gpr(r)/fetch_pc()/stats() surface; a
/// per-engine traits struct derives from this and shadows only what its
/// model does differently.
template <typename Model>
struct timing_traits {
    using model = Model;
    /// Built on the OSM director/kernel (exposed to the pipeline tracer).
    static constexpr bool osm_based = true;
    static constexpr bool executes_fp = true;
    template <typename Config>
    static void emplace(std::optional<Model>& m, const Config& cfg, mem::main_memory& memory) {
        m.emplace(cfg, memory);
    }
    static void load(Model& m, const isa::program_image& img) { m.load(img); }
    static bool halted(const Model& m) { return m.halted(); }
    static std::uint32_t gpr(const Model& m, unsigned r) { return m.gpr(r); }
    static std::uint32_t fpr(const Model& m, unsigned r) { return m.fpr(r); }
    static std::uint32_t pc(const Model& m) { return m.fetch_pc(); }
    static std::uint64_t cycles(const Model& m) { return m.stats().cycles; }
    static std::uint64_t retired(const Model& m) { return m.stats().retired; }
    /// Seed a freshly built model with checkpointed state: a resume stub
    /// points fetch at the boundary, then the architectural state is adopted.
    static void restore(Model& m, const checkpoint& ck) {
        m.load(resume_stub(ck.arch.pc));
        m.restore_arch(ck.arch, ck.console);
    }
};

/// OSM StrongARM-like 5-stage in-order pipeline (paper §5.1).
struct sarm_traits : timing_traits<sarm::sarm_model> {
    static constexpr std::string_view name = "sarm";
    static constexpr auto config = to_sarm_config;
};

/// Hand-coded cycle simulator of the SARM pipeline (SimpleScalar surrogate).
struct hw_traits : timing_traits<baseline::hardwired_sarm> {
    static constexpr std::string_view name = "hw";
    static constexpr bool osm_based = false;
    static constexpr auto config = to_sarm_config;
    static std::uint64_t cycles(const model& m) { return m.cycles(); }
    static std::uint64_t retired(const model& m) { return m.retired(); }
};

/// SARM whose OSM graph is elaborated from OSM-DL text (the paper's §7
/// ADL direction) onto sarm_model's own hardware layer and actions.
struct adl_traits : timing_traits<sarm::sarm_model> {
    static constexpr std::string_view name = "adl";
    static constexpr auto config = to_sarm_config;
    static void emplace(std::optional<model>& m, const sarm::sarm_config& cfg,
                        mem::main_memory& memory) {
        m.emplace(cfg, memory, adl::sarm_osmdl());
    }
};

/// SMT pipeline driven single-threaded (paper §6).  Integer-only: the
/// model has no FP register file, so executes_fp() is false and FP
/// programs are skipped by the differential harnesses.
struct smt_traits : timing_traits<smt::smt_model> {
    static constexpr std::string_view name = "smt";
    static constexpr bool executes_fp = false;
    static smt::smt_config config(const engine_config& cfg) {
        smt::smt_config c;
        c.threads = 1;
        c.forwarding = cfg.forwarding;
        c.decode_cache = cfg.decode_cache;
        c.decode_cache_entries = cfg.decode_cache_entries;
        return c;
    }
    static void load(model& m, const isa::program_image& img) { m.load(0, img); }
    // drained(), not all_done(): the latter flips at fetch of the exit
    // syscall, while it (and older ops) are still in flight.
    static bool halted(const model& m) { return m.drained(); }
    static std::uint32_t gpr(const model& m, unsigned r) { return m.gpr(0, r); }
    static std::uint32_t fpr(const model&, unsigned) { return 0; }
    static std::uint32_t pc(const model& m) { return m.pc(0); }
    static std::uint64_t retired(const model& m) { return m.stats().total_retired(); }
    static void restore(model& m, const checkpoint& ck) {
        m.restore_arch(ck.arch, ck.console);  // marks thread 0 loaded
    }
};

/// OSM PowerPC-750-like dual-issue out-of-order superscalar (paper §5.2).
struct p750_traits : timing_traits<ppc750::p750_model> {
    static constexpr std::string_view name = "p750";
    static constexpr auto config = to_p750_config;
};

/// Port/wire discrete-event superscalar (SystemC surrogate).
struct port_traits : timing_traits<baseline::port_ppc> {
    static constexpr std::string_view name = "port";
    static constexpr bool osm_based = false;
    static constexpr auto config = to_p750_config;
};

/// The adapter of every single-hart timing model: forwards the accessors
/// through Traits and owns the model's lifecycle.  The model lives in an
/// optional so that restore_state() and a repeated load() can rebuild it:
/// caches, predictors, queues and kernels then start exactly as in a
/// freshly constructed engine.
template <typename Traits>
class timing_engine final : public engine {
public:
    explicit timing_engine(const engine_config& cfg) : cfg_(cfg) { rebuild(); }

    std::string_view name() const override { return Traits::name; }
    void load(const isa::program_image& img) override {
        // The constructor's model is pristine; one that has been loaded or
        // restored before is not, whatever its own load() resets.
        if (image_ || base_) {
            mem_.clear();
            rebuild();
        }
        Traits::load(*sim_, img);
        image_ = img;
        base_.reset();
    }
    std::uint64_t run(std::uint64_t max_cycles) override { return sim_->run(max_cycles); }
    bool halted() const override { return Traits::halted(*sim_); }
    std::uint32_t gpr(unsigned r) const override { return Traits::gpr(*sim_, r); }
    std::uint32_t fpr(unsigned r) const override { return Traits::fpr(*sim_, r); }
    std::uint32_t pc() const override { return Traits::pc(*sim_); }
    const std::string& console() const override { return sim_->console(); }
    std::uint64_t cycles() const override { return Traits::cycles(*sim_); }
    std::uint64_t retired() const override {
        return (base_ ? base_->retired : 0) + Traits::retired(*sim_);
    }
    bool executes_fp() const override { return Traits::executes_fp; }
    core::director* director() override {
        if constexpr (Traits::osm_based) return &sim_->dir();
        return nullptr;
    }
    core::sim_kernel* kernel() override {
        if constexpr (Traits::osm_based) return &sim_->kernel();
        return nullptr;
    }

    checkpoint_level checkpoint_support() const override {
        return checkpoint_level::architectural;
    }
    checkpoint save_state() const override {
        return replay_architectural(name(), image_ ? &*image_ : nullptr,
                                    base_ ? &*base_ : nullptr, retired(), cycles());
    }
    void restore_state(const checkpoint& ck) override {
        require_single_hart(ck, name());
        mem_.clear();
        restore_memory(mem_, ck.pages);
        rebuild();
        Traits::restore(*sim_, ck);
        base_ = ck;
    }

protected:
    stats::report make_report() const override { return sim_->make_report(); }

private:
    void rebuild() { Traits::emplace(sim_, Traits::config(cfg_), mem_); }

    engine_config cfg_;
    mem::main_memory mem_;
    std::optional<typename Traits::model> sim_;
    /// The loaded program, golden-replayed by save_state().
    std::optional<isa::program_image> image_;
    /// The checkpoint this engine was restored from: save_state() replays
    /// from it, and retired() counts on from its boundary.
    std::optional<checkpoint> base_;
};

/// PPC32 functional golden model (spec-generated decoder, big-endian).
class ppc32_engine final : public engine {
public:
    explicit ppc32_engine(const engine_config&) : sim_(mem_) {}

    std::string_view name() const override { return "ppc32"; }
    std::string_view isa() const override { return "ppc32"; }
    void load(const isa::program_image& img) override {
        mem_.clear();
        sim_.load(img);
    }
    std::uint64_t run(std::uint64_t max_cycles) override { return sim_.run(max_cycles); }
    bool halted() const override { return sim_.state().halted; }
    std::uint32_t gpr(unsigned r) const override { return sim_.state().r[r]; }
    std::uint32_t fpr(unsigned) const override { return 0; }
    std::uint32_t pc() const override { return sim_.state().pc; }
    const std::string& console() const override { return sim_.console(); }
    std::uint64_t cycles() const override { return sim_.instret(); }
    std::uint64_t retired() const override { return sim_.instret(); }
    bool models_timing() const override { return false; }
    bool executes_fp() const override { return false; }

protected:
    stats::report make_report() const override { return sim_.make_report(); }

private:
    mem::main_memory mem_;
    ppc32::ppc_iss sim_;
};

/// PPC32 dual-issue in-order timing model over the same semantics.
class ppc32_750_engine final : public engine {
public:
    explicit ppc32_750_engine(const engine_config&) : sim_(mem_) {}

    std::string_view name() const override { return "ppc32-750"; }
    std::string_view isa() const override { return "ppc32"; }
    void load(const isa::program_image& img) override {
        mem_.clear();
        sim_.load(img);
    }
    std::uint64_t run(std::uint64_t max_cycles) override { return sim_.run(max_cycles); }
    bool halted() const override { return sim_.state().halted; }
    std::uint32_t gpr(unsigned r) const override { return sim_.state().r[r]; }
    std::uint32_t fpr(unsigned) const override { return 0; }
    std::uint32_t pc() const override { return sim_.state().pc; }
    const std::string& console() const override { return sim_.console(); }
    std::uint64_t cycles() const override { return sim_.cycles(); }
    std::uint64_t retired() const override { return sim_.instret(); }
    bool executes_fp() const override { return false; }

protected:
    stats::report make_report() const override { return sim_.make_report(); }

private:
    mem::main_memory mem_;
    ppc32::ppc_750 sim_;
};

template <typename Engine>
engine_registry::entry make_entry(std::string name, std::string description,
                                  std::string isa = "vr32") {
    return {std::move(name), std::move(description),
            [](const engine_config& cfg) -> std::unique_ptr<engine> {
                return std::make_unique<Engine>(cfg);
            },
            std::move(isa)};
}

}  // namespace

void register_builtin_engines(engine_registry& r) {
    r.add(make_entry<iss_engine>("iss", "functional instruction-set simulator (golden model)"));
    r.add(make_entry<mh_iss_engine>(
        "mh-iss", "multi-hart functional ISS (SC/TSO shared memory, seeded scheduler)"));
    r.add(make_entry<timing_engine<sarm_traits>>("sarm", "OSM StrongARM-like 5-stage in-order pipeline (paper 5.1)"));
    r.add(make_entry<timing_engine<hw_traits>>("hw", "hand-coded cycle simulator of the SARM pipeline (SimpleScalar surrogate)"));
    r.add(make_entry<timing_engine<adl_traits>>("adl", "SARM elaborated from OSM-DL text (paper 7)"));
    r.add(make_entry<timing_engine<smt_traits>>("smt", "SMT pipeline run single-threaded (paper 6, integer only)"));
    r.add(make_entry<timing_engine<p750_traits>>("p750", "OSM PowerPC-750-like out-of-order superscalar (paper 5.2)"));
    r.add(make_entry<timing_engine<port_traits>>("port", "port/wire discrete-event superscalar (SystemC surrogate)"));
    r.add(make_entry<ppc32_engine>(
        "ppc32", "PPC32 functional ISS (spec-generated decoder, big-endian)", "ppc32"));
    r.add(make_entry<ppc32_750_engine>(
        "ppc32-750", "PPC32 dual-issue in-order timing model (750-style)", "ppc32"));
}

}  // namespace osm::sim
