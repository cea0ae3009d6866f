#include "stats/covariance_source.hpp"

#include <algorithm>
#include <string>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"

namespace losstomo::stats {

void PathChurnLedger::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kChurnLedger);
  writer.u8s(active_);
  writer.sizes(activated_at_);
  writer.end_section();
}

void PathChurnLedger::restore_state(io::CheckpointReader& reader,
                                    std::size_t pushes) {
  reader.expect_section(io::tags::kChurnLedger);
  std::vector<std::uint8_t> active = reader.u8s();
  std::vector<std::size_t> activated_at = reader.sizes();
  reader.end_section();
  if (active.size() != active_.size() ||
      activated_at.size() != activated_at_.size()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "churn ledger dimension " + std::to_string(active.size()) +
            ", expected " + std::to_string(active_.size()));
  }
  if (std::any_of(activated_at.begin(), activated_at.end(),
                  [pushes](std::size_t at) { return at > pushes; })) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "churn ledger activation lies past the push "
                              "count " + std::to_string(pushes));
  }
  active_ = std::move(active);
  activated_at_ = std::move(activated_at);
}

BatchCovarianceSource::BatchCovarianceSource(const SnapshotMatrix& y,
                                             std::size_t threads)
    : owned_(CenteredSnapshots(y)), centered_(&*owned_), threads_(threads) {}

BatchCovarianceSource::BatchCovarianceSource(const CenteredSnapshots& centered,
                                             std::size_t threads)
    : centered_(&centered), threads_(threads) {}

const linalg::Matrix& BatchCovarianceSource::matrix() const {
  if (!cached_) cached_ = covariance_matrix(*centered_, threads_);
  return *cached_;
}

}  // namespace losstomo::stats
