// The monitor's one readiness rule (stats::PathChurnLedger): a dimension's
// statistics cover min(pushes - activated_at, window fill) trailing
// samples, a retired dimension covers none, and a dimension is ready once
// it covers the whole window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "stats/covariance_source.hpp"

namespace losstomo::stats {
namespace {

constexpr std::size_t kWindow = 8;

// The window fill after `pushes` pushes into a window of kWindow rows.
std::size_t fill(std::size_t pushes) { return std::min(pushes, kWindow); }

TEST(PathChurnLedger, FreshDimensionsCoverTheWindow) {
  const PathChurnLedger ledger(3);
  EXPECT_FALSE(ledger.ready(0, 0, 0));  // an empty window backs nothing
  for (std::size_t pushes = 1; pushes <= kWindow + 2; ++pushes) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ledger.samples(i, pushes, fill(pushes)), fill(pushes));
      EXPECT_TRUE(ledger.ready(i, pushes, fill(pushes)));
    }
  }
}

TEST(PathChurnLedger, RetireGivesZeroSamples) {
  PathChurnLedger ledger(3);
  const std::size_t pushes = kWindow + 3;
  ledger.retire(1);
  EXPECT_FALSE(ledger.active(1));
  EXPECT_EQ(ledger.samples(1, pushes, kWindow), 0u);
  EXPECT_FALSE(ledger.ready(1, pushes, kWindow));
  // The other dimensions are untouched.
  EXPECT_TRUE(ledger.ready(0, pushes, kWindow));
  EXPECT_TRUE(ledger.ready(2, pushes, kWindow));
}

TEST(PathChurnLedger, RejoinedPathIsReadyAfterExactlyWindowPushes) {
  PathChurnLedger ledger(2);
  std::size_t pushes = kWindow + 3;
  ledger.retire(1);
  pushes += 3;
  ledger.activate(1, pushes);
  ledger.activate(1, pushes + 5);  // already active: a no-op
  for (std::size_t l = 0; l < kWindow; ++l) {
    EXPECT_EQ(ledger.samples(1, pushes, kWindow), l);
    EXPECT_FALSE(ledger.ready(1, pushes, kWindow)) << "after " << l;
    ++pushes;
  }
  EXPECT_TRUE(ledger.ready(1, pushes, kWindow));
  EXPECT_TRUE(ledger.ready(0, pushes, kWindow));
}

TEST(PathChurnLedger, AddDimWarmsUpLikeARejoin) {
  PathChurnLedger ledger(2);
  std::size_t pushes = kWindow + 2;
  ledger.add_dim(pushes);
  ASSERT_EQ(ledger.dim(), 3u);
  EXPECT_TRUE(ledger.active(2));
  for (std::size_t l = 0; l < kWindow; ++l) {
    EXPECT_EQ(ledger.samples(2, pushes, kWindow), l);
    EXPECT_FALSE(ledger.ready(2, pushes, kWindow)) << "after " << l;
    EXPECT_TRUE(ledger.ready(0, pushes, kWindow));  // old dims unaffected
    ++pushes;
  }
  EXPECT_TRUE(ledger.ready(2, pushes, kWindow));
}

// An activation past the restored push count would make samples() wrap
// and report the path ready at once; the CRC cannot catch an image
// written that way, so the restore must.
TEST(PathChurnLedger, RestoreRejectsActivationPastThePushCount) {
  io::CheckpointWriter writer;
  writer.begin_section(io::tags::kChurnLedger);
  writer.u8s(std::vector<std::uint8_t>{1, 1});
  writer.sizes(std::vector<std::size_t>{0, 9});
  writer.end_section();
  const auto image = writer.finish();

  PathChurnLedger ledger(2);
  ledger.retire(1);
  auto reader = io::CheckpointReader::from_bytes(image);
  try {
    ledger.restore_state(reader, 5);
    FAIL() << "accepted an activation past the push count";
  } catch (const io::CheckpointError& e) {
    EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kCorrupt);
  }
  EXPECT_FALSE(ledger.active(1));  // the failed restore changed nothing

  // The same section restores at a push count that covers it.
  auto again = io::CheckpointReader::from_bytes(image);
  ledger.restore_state(again, 9);
  EXPECT_TRUE(ledger.active(1));
  EXPECT_EQ(ledger.samples(1, 9, kWindow), 0u);
}

}  // namespace
}  // namespace losstomo::stats
