// Route-fluttering detection and removal (Assumption T.2, paper §3.1).
//
// T.2 forbids a pair of paths from sharing two links without sharing every
// link in between: the paths may meet, run together along one contiguous
// segment, and diverge — but never re-meet.  Violations break the
// identifiability proof, so (as in the paper's PlanetLab methodology, §7.1)
// we detect offending pairs and drop paths until none remain.
#pragma once

#include <cstddef>
#include <vector>

#include "net/path.hpp"

namespace losstomo::net {

/// A pair of path indices violating T.2.
struct FlutteringViolation {
  std::size_t path_a;
  std::size_t path_b;
};

/// Returns all path pairs that violate T.2: pairs sharing >= 2 edges whose
/// shared edges do not form one identical contiguous segment on both paths.
/// Violations come in ascending (path_a, path_b) order with path_a < path_b.
///
/// Precondition: no path repeats an edge (simple paths, as routing
/// produces); throws std::invalid_argument otherwise.
///
/// Cost: one pass per path over the paths sharing each of its edges, with
/// a reused per-partner counter array — O(sum over edges of d_e^2) counter
/// updates for d_e paths through edge e, plus a sort of each path's
/// partners and an O(|a| + |b|) segment check per pair sharing >= 2 edges.
/// Memory is O(edges + paths + total path length); no per-pair state.
std::vector<FlutteringViolation> detect_fluttering(
    const std::vector<Path>& paths);

/// Result of removing fluttering paths.
struct SanitizeResult {
  std::vector<Path> paths;               // surviving paths
  std::vector<std::size_t> kept;         // original indices of survivors
  std::vector<std::size_t> removed;      // original indices dropped
};

/// Greedily removes the path involved in the most violations until the set
/// satisfies T.2 ("we keep only the measurements on one path and ignore the
/// others", paper §3.1); ties go to the lowest original index.  Detects
/// once, then updates the involvement counts per removal (removing a path
/// cannot create a violation).  Same precondition as detect_fluttering.
SanitizeResult remove_fluttering_paths(std::vector<Path> paths);

}  // namespace losstomo::net
