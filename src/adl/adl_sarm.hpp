// The SARM case study's operation layer expressed in OSM-DL.
//
// The paper argues that the declarative part of an OSM model — states,
// edges, token transactions — can be synthesized from an architecture
// description language, leaving the hardware layer and the operation
// semantics in code.  `sarm_osmdl()` is that declarative part for the §5.1
// case study: `sarm::sarm_model` constructed with this text elaborates its
// OSM graph from it, binding the text's manager and action names to the
// model's own token managers (m_f ... m_reset) and edge actions, instead
// of calling its hand-built build_graph().  That model is the `adl` engine,
// validated cycle-for-cycle against the hand-built graph in
// tests/adl_sarm_test.cpp.
#pragma once

#include <string>

namespace osm::adl {

/// The OSM-DL source describing the SARM operation layer (paper Fig. 6
/// plus the §4 reset edges and the multiplier of §5.1).
std::string sarm_osmdl();

}  // namespace osm::adl
