// Fixture: the compliant shape — schema-clean names, timers tagged
// nondeterministic, deterministic counters left to publish from
// serialized state.
// lint-fixture-path: src/core/fixture_metrics.cpp
#include "obs/registry.hpp"

void register_metrics(losstomo::obs::Registry& r) {
  r.counter("monitor.ticks");
  r.gauge("host.load",
          losstomo::obs::Determinism::kNondeterministic);
  r.histogram("span.solve.seconds");
  // lint: metric-naming-ok(window_load is a serialized ring-fill ratio
  // published from restore-stable state, not a timer reading)
  r.gauge("monitor.window_load",
          losstomo::obs::Determinism::kDeterministic);
}
