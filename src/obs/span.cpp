#include "obs/span.hpp"

#include "obs/registry.hpp"

namespace losstomo::obs {

#ifndef LOSSTOMO_NO_TELEMETRY

Span::Span(Registry* registry, std::size_t phase) noexcept
    : registry_(registry), phase_(phase) {
  if (registry_ == nullptr) return;
  parent_ = registry_->active_span_;
  if (parent_ != nullptr && parent_->phase_ == phase_) {
    // Re-entering the open phase (a monitor tick inside a scenario tick):
    // the enclosing span already times it.
    registry_ = nullptr;
    return;
  }
  if (parent_ != nullptr) {
    depth_ = parent_->depth_ + 1;
    // Exclusive timing: the parent stops accumulating while we run.
    parent_->timer_.pause();
  }
  registry_->active_span_ = this;
  timer_.reset();
}

Span::~Span() {
  if (registry_ == nullptr) return;
  timer_.pause();
  registry_->finish_span(phase_, timer_.seconds(), depth_);
  registry_->active_span_ = parent_;
  if (parent_ != nullptr) parent_->timer_.resume();
}

#endif  // LOSSTOMO_NO_TELEMETRY

}  // namespace losstomo::obs
