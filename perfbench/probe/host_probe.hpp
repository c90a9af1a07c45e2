// Host-speed probe: a fixed, simulator-like integer loop (table walk,
// data-dependent branches, loads and stores in a 64 KiB working set) whose
// rate tracks how fast this host runs right now.
#pragma once

namespace perfbench {

/// Probe iterations per host second, measured over one fixed-size run.
double host_probe_rate();

/// The probe rate of the reference host (a 4-core Xeon with no other load
/// on its cores); timings are reported as if the host had run at this
/// speed throughout.
inline constexpr double nominal_probe_rate = 1.2e8;

}  // namespace perfbench
