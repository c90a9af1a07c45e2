// OSM-DL: a small declarative architecture description language over the
// OSM model.  The paper names this as the next step ("to devise an
// architecture description language based on the OSM model"); we implement
// a working core of it so whole state machines and their token managers can
// be described as text and elaborated into runnable models.
//
// Grammar (line comments with ';' or '#'):
//
//   machine <name>
//   slots <n>                          ; dynamic identifier slots per OSM
//
//   manager unit    <name>
//   manager pool    <name> capacity <n>
//   manager queue   <name> capacity <n> [alloc_bw <n>] [release_bw <n>]
//   manager regfile <name> regs <n> [zero] [forwarding]
//   manager rename  <name> regs <n> buffers <n> [zero]
//   manager reset   <name>
//
//   state <name> [initial]
//
//   edge <from> -> <to> [priority <n>] {
//     allocate <manager> <ident>|slot <n>
//     inquire  <manager> <ident>|slot <n>
//     release  <manager> <ident>|slot <n>
//     discard  <manager> <ident>|slot <n>
//     discard_all
//     action <name>                    ; resolved via the action registry
//   }
//
// A primitive may also name a manager the embedding model supplies through
// the manager registry, so a text can bind to a hardware layer that lives
// in C++ (src/sarm binds its own managers and actions this way).
//
// Elaboration produces an owning `machine`: the declared managers plus a
// finalized core::osm_graph ready for instantiating OSMs and running a
// director.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/osm_graph.hpp"
#include "core/token_manager.hpp"

namespace osm::adl {

/// Raised on syntax/semantic errors; carries the 1-based line number.
class adl_error : public std::runtime_error {
public:
    adl_error(unsigned line, const std::string& message)
        : std::runtime_error("line " + std::to_string(line) + ": " + message),
          line_(line) {}

    unsigned line() const noexcept { return line_; }

private:
    unsigned line_;
};

/// Named edge actions supplied by the embedding model.
using action_registry =
    std::map<std::string, core::edge_action, std::less<>>;

/// Named token managers supplied (and owned) by the embedding model.
using manager_registry =
    std::map<std::string, core::token_manager*, std::less<>>;

/// An elaborated machine: owning managers + a finalized graph.
struct machine {
    std::string name;
    std::vector<std::unique_ptr<core::token_manager>> managers;
    core::osm_graph graph{"adl"};

    /// Look up a declared manager by name (nullptr when absent).
    core::token_manager* find_manager(std::string_view mgr_name) const;
};

/// Parse and elaborate an OSM-DL description.  Unknown action names raise
/// adl_error unless `allow_missing_actions` (then they become no-ops).
/// Primitives may name the managers in `managers` as well as declared ones;
/// declaring a name that `managers` already supplies is an error.
std::unique_ptr<machine> parse_machine(std::string_view source,
                                       const action_registry& actions = {},
                                       bool allow_missing_actions = false,
                                       const manager_registry& managers = {});

}  // namespace osm::adl
