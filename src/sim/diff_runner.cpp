#include "sim/diff_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "isa/arch.hpp"
#include "isa/encoding.hpp"
#include "sim/registry.hpp"

namespace osm::sim {

namespace {

std::string hex32(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08X", v);
    return buf;
}

std::string printable(const std::string& s) {
    // Console streams can be long; show enough to localize the mismatch.
    constexpr std::size_t limit = 64;
    std::string out;
    for (char c : s.substr(0, limit)) {
        if (c == '\n') out += "\\n";
        else out += c;
    }
    if (s.size() > limit) out += "...";
    return out;
}

/// Why `cand` cannot be diffed against `ref` on a program with these
/// features, or "" when it can.
std::string skip_reason(const engine& ref, const engine& cand, bool fp_program,
                        bool amo_program) {
    if (cand.isa() != ref.isa())
        return "isa mismatch: " + std::string(cand.isa()) + " engine vs " +
               std::string(ref.isa()) + " reference";
    if (const unsigned harts = std::max(ref.harts(), cand.harts()); harts > 1)
        return "multi-hart run (" + std::to_string(harts) +
               " harts): checked by the litmus harness, not diffed";
    if (fp_program && !cand.executes_fp()) return "no FP support, program uses FP";
    if (amo_program && !cand.executes_amo())
        return "no atomics support, program uses lr/sc/amo/fence";
    return {};
}

}  // namespace

end_state capture_end_state(const engine& e) {
    end_state s;
    s.halted = e.halted();
    s.cycles = e.cycles();
    s.retired = e.retired();
    for (unsigned r = 0; r < isa::num_gprs; ++r) s.gpr[r] = e.gpr(r);
    for (unsigned r = 0; r < isa::num_fprs; ++r) s.fpr[r] = e.fpr(r);
    s.console = e.console();
    return s;
}

std::optional<divergence> compare_end_states(const std::string& reference,
                                             const std::string& engine,
                                             const end_state& ref,
                                             const end_state& cand,
                                             bool compare_fp) {
    const auto make = [&](std::string kind, unsigned index, std::string expected,
                          std::string actual) {
        return divergence{reference, engine, std::move(kind), index,
                          std::move(expected), std::move(actual)};
    };
    if (cand.halted != ref.halted) {
        return make("halted", 0, std::to_string(ref.halted),
                    std::to_string(cand.halted));
    }
    for (unsigned r = 0; r < isa::num_gprs; ++r) {
        if (cand.gpr[r] != ref.gpr[r]) {
            return make("gpr", r, hex32(ref.gpr[r]), hex32(cand.gpr[r]));
        }
    }
    if (compare_fp) {
        for (unsigned r = 0; r < isa::num_fprs; ++r) {
            if (cand.fpr[r] != ref.fpr[r]) {
                return make("fpr", r, hex32(ref.fpr[r]), hex32(cand.fpr[r]));
            }
        }
    }
    if (cand.console != ref.console) {
        return make("console", 0, printable(ref.console), printable(cand.console));
    }
    if (cand.retired != ref.retired) {
        return make("retired", 0, std::to_string(ref.retired),
                    std::to_string(cand.retired));
    }
    return std::nullopt;
}

std::string divergence::to_string() const {
    std::string s = "engine " + engine + " diverges from " + reference + ": " + kind;
    if (kind == "gpr" || kind == "fpr") s += "[" + std::to_string(index) + "]";
    s += " expected " + expected + " actual " + actual;
    return s;
}

namespace {

/// Scan the text segment (the one containing `img.entry`) with `pred`.
template <typename Pred>
bool text_any_of(const isa::program_image& img, Pred pred) {
    for (const auto& seg : img.segments) {
        if (img.entry < seg.base || img.entry >= seg.base + seg.bytes.size()) continue;
        for (std::size_t i = 0; i + 4 <= seg.bytes.size(); i += 4) {
            const std::uint32_t word = static_cast<std::uint32_t>(seg.bytes[i]) |
                                       static_cast<std::uint32_t>(seg.bytes[i + 1]) << 8 |
                                       static_cast<std::uint32_t>(seg.bytes[i + 2]) << 16 |
                                       static_cast<std::uint32_t>(seg.bytes[i + 3]) << 24;
            if (pred(isa::decode(word).code)) return true;
        }
    }
    return false;
}

}  // namespace

bool program_uses_fp(const isa::program_image& img) {
    return text_any_of(img, [](isa::op c) { return isa::is_fp(c); });
}

bool program_uses_atomics(const isa::program_image& img) {
    return text_any_of(img, [](isa::op c) { return isa::is_atomic_or_fence(c); });
}

diff_result diff_engines(const std::vector<std::string>& names,
                         const isa::program_image& img, const diff_options& opt) {
    if (names.size() < 2) {
        throw std::invalid_argument("diff_engines: need a reference and at least one engine");
    }
    auto& reg = engine_registry::instance();
    // Resolve every name up front so a typo fails before any simulation.
    for (const auto& n : names) {
        if (!reg.contains(n)) reg.create(n, opt.config);  // throws unknown_engine
    }

    diff_result result;

    // Engines are still instantiated on a cache hit (the skip decisions
    // need isa()/executes_fp()), but the load+run — the expensive part —
    // is replaced by the memoized terminal state.
    const auto terminal_state = [&](engine& e, const std::string& name) {
        if (opt.cache != nullptr) {
            if (auto hit = opt.cache->lookup(name, img, opt.max_cycles)) return *hit;
        }
        e.load(img);
        e.run(opt.max_cycles);
        end_state st = capture_end_state(e);
        if (opt.cache != nullptr) opt.cache->store(name, img, opt.max_cycles, st);
        return st;
    };

    auto ref = reg.create(names.front(), opt.config);
    // program_uses_fp decodes VR32 words; it is meaningless for other ISAs.
    const bool fp_program = ref->isa() == "vr32" && program_uses_fp(img);
    const bool amo_program = ref->isa() == "vr32" && program_uses_atomics(img);
    const bool ref_fp = ref->executes_fp();
    const end_state ref_state = terminal_state(*ref, names.front());
    result.runs.push_back({std::string(ref->name()), true, "", ref_state.halted,
                           ref_state.cycles, ref_state.retired});

    for (std::size_t i = 1; i < names.size(); ++i) {
        auto eng = reg.create(names[i], opt.config);
        if (std::string why = skip_reason(*ref, *eng, fp_program, amo_program);
            !why.empty()) {
            result.runs.push_back({names[i], false, std::move(why), false, 0, 0});
            continue;
        }
        const end_state cand_state = terminal_state(*eng, names[i]);
        result.runs.push_back({names[i], true, "", cand_state.halted,
                               cand_state.cycles, cand_state.retired});

        if (auto d = compare_end_states(std::string(ref->name()), names[i], ref_state,
                                        cand_state, ref_fp && eng->executes_fp())) {
            result.divergences.push_back(std::move(*d));
        }
    }
    return result;
}

namespace {

/// Architectural-state compare at equal retirement counts (no cycle/pc
/// compare: timing legitimately differs, and pipelined fetch pcs run ahead).
std::optional<divergence> compare_state(const engine& ref, const engine& cand,
                                        bool compare_fp) {
    return compare_end_states(std::string(ref.name()), std::string(cand.name()),
                              capture_end_state(ref), capture_end_state(cand),
                              compare_fp);
}

}  // namespace

lockstep_result lockstep_diff(const std::string& candidate, const isa::program_image& img,
                              const lockstep_options& opt) {
    auto& reg = engine_registry::instance();
    auto ref = reg.create(opt.reference, opt.config);
    auto cand = reg.create(candidate, opt.config);

    lockstep_result result;
    // The opcode scans decode VR32 words; they are meaningless for other ISAs.
    const bool vr32 = ref->isa() == "vr32";
    result.skip_reason = skip_reason(*ref, *cand, vr32 && program_uses_fp(img),
                                     vr32 && program_uses_atomics(img));
    if (!result.skip_reason.empty()) return result;
    result.ran = true;
    const bool compare_fp = ref->executes_fp() && cand->executes_fp();
    // Probes warm-boot both engines from the reference's checkpoint: at an
    // agreed boundary the architectural states are equal, so one snapshot
    // serves both, and the (exact-level) reference saves without replay.
    const bool use_ck = ref->supports_checkpoint() && cand->supports_checkpoint();

    ref->load(img);
    cand->load(img);

    checkpoint ck_lo;
    bool have_lo = false;
    std::uint64_t lo = 0;

    // Advance both engines to a shared retirement boundary >= `target`.
    // The reference steps exactly, so it absorbs any candidate overshoot
    // (a dual-retire engine can pass the boundary by one).
    const auto advance_to = [&](engine& r, engine& c, std::uint64_t target) {
        r.run_until_retired(target);
        c.run_until_retired(r.retired());
        while (c.retired() > r.retired() && !r.halted()) r.run_until_retired(c.retired());
        return std::max(r.retired(), c.retired());
    };

    for (;;) {
        const std::uint64_t boundary = advance_to(*ref, *cand, ref->retired() + opt.interval);
        ++result.compares;
        if (auto d = compare_state(*ref, *cand, compare_fp)) {
            result.diverged = true;
            result.div = *d;
            result.final_retired = boundary;
            if (opt.locate) {
                std::uint64_t hi = boundary;
                result.used_checkpoint_bisect = use_ck && have_lo;
                const auto probe = [&](std::uint64_t n) -> std::pair<std::uint64_t, bool> {
                    auto rp = reg.create(opt.reference, opt.config);
                    auto cp = reg.create(candidate, opt.config);
                    if (result.used_checkpoint_bisect) {
                        rp->restore_state(ck_lo);
                        cp->restore_state(ck_lo);
                        result.restores += 2;
                    } else {
                        rp->load(img);
                        cp->load(img);
                    }
                    const std::uint64_t m = advance_to(*rp, *cp, n);
                    return {m, !compare_state(*rp, *cp, compare_fp).has_value()};
                };
                while (hi - lo > 1) {
                    const std::uint64_t mid = lo + (hi - lo) / 2;
                    const auto [m, agree] = probe(mid);
                    if (agree) {
                        if (m >= hi) {  // overshot the divergent boundary while agreeing
                            lo = hi - 1;
                            break;
                        }
                        lo = m;
                    } else {
                        if (m >= hi) break;  // overshoot: cannot tighten further
                        hi = m;
                    }
                }
                result.first_divergent_retired = hi;
                result.located = true;
            }
            return result;
        }
        if (ref->halted() && cand->halted()) {
            result.final_retired = boundary;
            return result;
        }
        if (boundary == lo) {  // wedged: no forward progress and no halt
            result.hit_budget = true;
            result.final_retired = boundary;
            return result;
        }
        if (boundary >= opt.max_retired) {
            result.hit_budget = true;
            result.final_retired = boundary;
            return result;
        }
        lo = boundary;
        if (opt.locate && use_ck) {
            ck_lo = ref->save_state();
            have_lo = true;
            ++result.checkpoints;
        }
    }
}

}  // namespace osm::sim
