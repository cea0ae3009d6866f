#include "net/fluttering.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace losstomo::net {

namespace {

// Edge -> path incidence in CSR form: the paths through edge e are
// paths[offsets[e] .. offsets[e + 1]), ascending (filled in path order).
struct EdgeIncidence {
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> paths;
};

EdgeIncidence edge_incidence(const std::vector<Path>& paths) {
  std::size_t edges = 0;
  for (const auto& p : paths) {
    for (const auto e : p.edges) {
      edges = std::max(edges, static_cast<std::size_t>(e) + 1);
    }
  }
  EdgeIncidence inc;
  inc.offsets.assign(edges + 1, 0);
  for (const auto& p : paths) {
    for (const auto e : p.edges) ++inc.offsets[e + 1];
  }
  for (std::size_t e = 0; e < edges; ++e) inc.offsets[e + 1] += inc.offsets[e];
  inc.paths.resize(inc.offsets.back());
  std::vector<std::size_t> next(inc.offsets.begin(), inc.offsets.end() - 1);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (const auto e : paths[i].edges) {
      // Lists fill in path order, so a repeat within path i is the last
      // entry already written for this edge.
      if (next[e] > inc.offsets[e] && inc.paths[next[e] - 1] == i) {
        throw std::invalid_argument("path " + std::to_string(i) +
                                    " repeats edge " + std::to_string(e));
      }
      inc.paths[next[e]++] = static_cast<std::uint32_t>(i);
    }
  }
  return inc;
}

// True when the `count` edges a[first .. first + count) run in the same
// order as one contiguous segment of b.  For simple paths sharing exactly
// `count` edges, of which a[first] is the first on a, this is T.2's
// condition: the shared edges are consecutive on a and advance in lockstep
// on b.
bool one_shared_segment(const std::vector<EdgeId>& a, std::size_t first,
                        std::size_t count, const std::vector<EdgeId>& b) {
  const auto at = std::find(b.begin(), b.end(), a[first]);
  const auto pb = static_cast<std::size_t>(at - b.begin());
  const auto a_begin = a.begin() + static_cast<std::ptrdiff_t>(first);
  return pb + count <= b.size() &&
         std::equal(a_begin, a_begin + static_cast<std::ptrdiff_t>(count), at);
}

}  // namespace

std::vector<FlutteringViolation> detect_fluttering(
    const std::vector<Path>& paths) {
  const EdgeIncidence inc = edge_incidence(paths);
  const std::size_t n = paths.size();
  // Per-partner scratch for the path being scanned, invalidated by stamp
  // (stamp[j] == a + 1 while scanning path a) instead of cleared.
  std::vector<std::size_t> stamp(n, 0);
  std::vector<std::uint32_t> shared(n, 0);  // edges shared with path a
  std::vector<std::uint32_t> first(n, 0);   // a-position of the first one
  std::vector<std::uint32_t> partners;
  std::vector<FlutteringViolation> out;
  for (std::size_t a = 0; a < n; ++a) {
    const auto& edges = paths[a].edges;
    partners.clear();
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const auto begin = inc.paths.begin() +
                         static_cast<std::ptrdiff_t>(inc.offsets[edges[k]]);
      const auto end = inc.paths.begin() +
                       static_cast<std::ptrdiff_t>(inc.offsets[edges[k] + 1]);
      // a itself is on the list, so the partners j > a are the suffix past it.
      for (auto it = std::upper_bound(begin, end, a); it != end; ++it) {
        const std::uint32_t j = *it;
        if (stamp[j] != a + 1) {
          stamp[j] = a + 1;
          shared[j] = 1;
          first[j] = static_cast<std::uint32_t>(k);
          partners.push_back(j);
        } else {
          ++shared[j];
        }
      }
    }
    // Only paths sharing at least two edges can violate T.2.
    std::sort(partners.begin(), partners.end());
    for (const auto b : partners) {
      if (shared[b] < 2) continue;
      if (!one_shared_segment(edges, first[b], shared[b], paths[b].edges)) {
        out.push_back({a, b});
      }
    }
  }
  return out;
}

SanitizeResult remove_fluttering_paths(std::vector<Path> paths) {
  // T.2 is a property of path pairs, so removing a path deletes exactly its
  // own violations and creates none: one detection serves the whole greedy
  // loop, which only decrements the removed path's partners.
  const auto violations = detect_fluttering(paths);
  const std::size_t n = paths.size();
  std::vector<std::size_t> involvement(n, 0);
  std::vector<std::vector<std::size_t>> partners(n);
  for (const auto& v : violations) {
    ++involvement[v.path_a];
    ++involvement[v.path_b];
    partners[v.path_a].push_back(v.path_b);
    partners[v.path_b].push_back(v.path_a);
  }
  SanitizeResult result;
  std::vector<std::uint8_t> removed(n, 0);
  for (std::size_t left = violations.size(); left > 0;) {
    // Removed paths sit at zero, so the first maximum is the lowest
    // surviving index among the most involved.
    const auto worst = static_cast<std::size_t>(
        std::max_element(involvement.begin(), involvement.end()) -
        involvement.begin());
    left -= involvement[worst];
    involvement[worst] = 0;
    removed[worst] = 1;
    result.removed.push_back(worst);
    for (const auto p : partners[worst]) {
      if (!removed[p]) --involvement[p];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) continue;
    result.kept.push_back(i);
    result.paths.push_back(std::move(paths[i]));
  }
  return result;
}

}  // namespace losstomo::net
