#include "adl/adl.hpp"

#include <cctype>
#include <limits>
#include <utility>

#include "uarch/inorder_queue.hpp"
#include "uarch/register_file.hpp"
#include "uarch/rename.hpp"
#include "uarch/reset.hpp"

namespace osm::adl {

namespace {

struct token_stream {
    struct tok {
        std::string text;
        unsigned line;
    };
    std::vector<tok> toks;
    std::size_t pos = 0;

    explicit token_stream(std::string_view src) {
        unsigned line = 1;
        std::size_t i = 0;
        while (i < src.size()) {
            const char c = src[i];
            if (c == '\n') {
                ++line;
                ++i;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
            } else if (c == ';' || c == '#') {
                while (i < src.size() && src[i] != '\n') ++i;
            } else if (c == '{' || c == '}') {
                toks.push_back({std::string(1, c), line});
                ++i;
            } else {
                std::size_t j = i;
                while (j < src.size() && !std::isspace(static_cast<unsigned char>(src[j])) &&
                       src[j] != '{' && src[j] != '}' && src[j] != ';' && src[j] != '#') {
                    ++j;
                }
                toks.push_back({std::string(src.substr(i, j - i)), line});
                i = j;
            }
        }
    }

    bool eof() const { return pos >= toks.size(); }
    unsigned line() const { return eof() ? (toks.empty() ? 1 : toks.back().line) : toks[pos].line; }
    const std::string& peek() const {
        static const std::string empty;
        return eof() ? empty : toks[pos].text;
    }
    std::string next(const char* what) {
        if (eof()) throw adl_error(line(), std::string("expected ") + what + ", got end of input");
        return toks[pos++].text;
    }
    void expect(const std::string& t) {
        const unsigned ln = line();
        const std::string got = next(t.c_str());
        if (got != t) throw adl_error(ln, "expected '" + t + "', got '" + got + "'");
    }
    bool accept(const std::string& t) {
        if (!eof() && toks[pos].text == t) {
            ++pos;
            return true;
        }
        return false;
    }
    /// A decimal or 0x-hex number no larger than `max`, the largest value
    /// of the field it fills.
    std::uint64_t number(const char* what,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
        const unsigned ln = line();
        const std::string t = next(what);
        std::uint64_t v = 0;
        std::size_t i = 0;
        unsigned base = 10;
        if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
            base = 16;
            i = 2;
        }
        if (i >= t.size()) throw adl_error(ln, std::string("bad number for ") + what);
        for (; i < t.size(); ++i) {
            const char c = t[i];
            unsigned d;
            if (c >= '0' && c <= '9') d = static_cast<unsigned>(c - '0');
            else if (base == 16 && c >= 'a' && c <= 'f') d = 10u + static_cast<unsigned>(c - 'a');
            else if (base == 16 && c >= 'A' && c <= 'F') d = 10u + static_cast<unsigned>(c - 'A');
            else throw adl_error(ln, std::string("bad number for ") + what);
            if (v > (std::numeric_limits<std::uint64_t>::max() - d) / base) {
                throw adl_error(ln, std::string(what) + " '" + t + "' overflows 64 bits");
            }
            v = v * base + d;
        }
        if (v > max) {
            throw adl_error(ln, std::string(what) + " " + t + " exceeds " + std::to_string(max));
        }
        return v;
    }
};

}  // namespace

core::token_manager* machine::find_manager(std::string_view mgr_name) const {
    for (const auto& m : managers) {
        if (m->name() == mgr_name) return m.get();
    }
    return nullptr;
}

std::unique_ptr<machine> parse_machine(std::string_view source,
                                       const action_registry& actions,
                                       bool allow_missing_actions,
                                       const manager_registry& managers) {
    constexpr std::uint64_t k_unsigned_max = std::numeric_limits<unsigned>::max();
    constexpr std::uint64_t k_int32_max = std::numeric_limits<std::int32_t>::max();

    token_stream ts(source);
    auto mc = std::make_unique<machine>();
    std::map<std::string, core::state_id, std::less<>> states;
    bool have_initial = false;
    // (line, index) of every `slot n`, checked against the final `slots`.
    std::vector<std::pair<unsigned, std::int32_t>> slot_uses;

    const auto get_manager = [&](unsigned ln, const std::string& name) {
        if (core::token_manager* m = mc->find_manager(name)) return m;
        const auto it = managers.find(name);
        if (it == managers.end()) throw adl_error(ln, "unknown manager '" + name + "'");
        return it->second;
    };

    while (!ts.eof()) {
        const unsigned ln = ts.line();
        const std::string kw = ts.next("directive");
        if (kw == "machine") {
            mc->name = ts.next("machine name");
        } else if (kw == "slots") {
            mc->graph.set_ident_slots(
                static_cast<std::int32_t>(ts.number("slot count", k_int32_max)));
        } else if (kw == "manager") {
            const std::string kind = ts.next("manager kind");
            const std::string name = ts.next("manager name");
            if (mc->find_manager(name) != nullptr) {
                throw adl_error(ln, "duplicate manager '" + name + "'");
            }
            if (managers.count(name) != 0) {
                throw adl_error(ln, "manager '" + name + "' is supplied by the model");
            }
            if (kind == "unit") {
                mc->managers.push_back(std::make_unique<core::unit_token_manager>(name));
            } else if (kind == "pool") {
                ts.expect("capacity");
                const auto cap = static_cast<unsigned>(ts.number("capacity", k_unsigned_max));
                mc->managers.push_back(
                    std::make_unique<core::pool_token_manager>(name, cap));
            } else if (kind == "queue") {
                ts.expect("capacity");
                const auto cap = static_cast<unsigned>(ts.number("capacity", k_unsigned_max));
                unsigned abw = 0;
                unsigned rbw = 0;
                if (ts.accept("alloc_bw")) {
                    abw = static_cast<unsigned>(ts.number("alloc_bw", k_unsigned_max));
                }
                if (ts.accept("release_bw")) {
                    rbw = static_cast<unsigned>(ts.number("release_bw", k_unsigned_max));
                }
                mc->managers.push_back(
                    std::make_unique<uarch::inorder_queue_manager>(name, cap, abw, rbw));
            } else if (kind == "regfile") {
                ts.expect("regs");
                const auto regs = static_cast<unsigned>(
                    ts.number("regs", uarch::register_file_manager::max_regs));
                const bool zero = ts.accept("zero");
                const bool fwd = ts.accept("forwarding");
                mc->managers.push_back(std::make_unique<uarch::register_file_manager>(
                    name, regs, zero, fwd));
            } else if (kind == "rename") {
                ts.expect("regs");
                const auto regs =
                    static_cast<unsigned>(ts.number("regs", uarch::rename_manager::max_regs));
                ts.expect("buffers");
                const auto bufs = static_cast<unsigned>(ts.number("buffers", k_unsigned_max));
                const bool zero = ts.accept("zero");
                mc->managers.push_back(
                    std::make_unique<uarch::rename_manager>(name, regs, bufs, zero));
            } else if (kind == "reset") {
                mc->managers.push_back(std::make_unique<uarch::reset_manager>(name));
            } else {
                throw adl_error(ln, "unknown manager kind '" + kind + "'");
            }
        } else if (kw == "state") {
            const std::string name = ts.next("state name");
            if (states.count(name)) throw adl_error(ln, "duplicate state '" + name + "'");
            const core::state_id s = mc->graph.add_state(name);
            states[name] = s;
            if (ts.accept("initial")) {
                if (have_initial) throw adl_error(ln, "multiple initial states");
                mc->graph.set_initial(s);
                have_initial = true;
            }
        } else if (kw == "edge") {
            const std::string from = ts.next("source state");
            ts.expect("->");
            const std::string to = ts.next("target state");
            if (!states.count(from)) throw adl_error(ln, "unknown state '" + from + "'");
            if (!states.count(to)) throw adl_error(ln, "unknown state '" + to + "'");
            int prio = 0;
            if (ts.accept("priority")) prio = static_cast<int>(ts.number("priority", k_int32_max));
            const std::int32_t e =
                mc->graph.add_edge(states[from], states[to], prio);
            ts.expect("{");
            while (!ts.accept("}")) {
                const unsigned pln = ts.line();
                const std::string pk = ts.next("primitive");
                if (pk == "discard_all") {
                    mc->graph.edge_discard_all(e);
                    continue;
                }
                if (pk == "action") {
                    const std::string an = ts.next("action name");
                    const auto it = actions.find(an);
                    if (it == actions.end()) {
                        if (!allow_missing_actions) {
                            throw adl_error(pln, "unknown action '" + an + "'");
                        }
                        continue;
                    }
                    mc->graph.edge_set_action(e, it->second);
                    continue;
                }
                if (pk != "allocate" && pk != "inquire" && pk != "release" &&
                    pk != "discard") {
                    throw adl_error(pln, "unknown primitive '" + pk + "'");
                }
                core::token_manager* mgr = get_manager(pln, ts.next("manager name"));
                core::ident_expr ie;
                if (ts.accept("slot")) {
                    const auto idx =
                        static_cast<std::int32_t>(ts.number("slot index", k_int32_max));
                    slot_uses.emplace_back(pln, idx);
                    ie = core::ident_expr::from_slot(idx);
                } else {
                    ie = core::ident_expr::value(ts.number("identifier"));
                }
                if (pk == "allocate") mc->graph.edge_allocate(e, *mgr, ie);
                else if (pk == "inquire") mc->graph.edge_inquire(e, *mgr, ie);
                else if (pk == "release") mc->graph.edge_release(e, *mgr, ie);
                else mc->graph.edge_discard(e, *mgr, ie);
            }
        } else {
            throw adl_error(ln, "unknown directive '" + kw + "'");
        }
    }

    if (mc->graph.num_states() == 0) {
        throw adl_error(ts.line(), "machine has no states");
    }
    const std::int32_t slots = mc->graph.ident_slots();
    for (const auto& [ln, idx] : slot_uses) {
        if (idx >= slots) {
            throw adl_error(ln, "slot " + std::to_string(idx) + " outside [0, " +
                                    std::to_string(slots) + ") declared by 'slots'");
        }
    }
    mc->graph.finalize();
    return mc;
}

}  // namespace osm::adl
