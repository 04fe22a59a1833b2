#include "ranging/wormhole_detector.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.hpp"

namespace sld::ranging {
namespace {

WormholeEvidence direct_evidence() {
  WormholeEvidence e;
  e.via_wormhole = false;
  e.receiver_position = {0, 0};
  e.claimed_sender_position = {100, 0};
  e.measured_distance_ft = 100.0;
  e.sender_range_ft = 150.0;
  return e;
}

WormholeEvidence tunneled_evidence() {
  WormholeEvidence e = direct_evidence();
  e.via_wormhole = true;
  e.claimed_sender_position = {800, 700};
  e.measured_distance_ft = 20.0;
  return e;
}

TEST(ProbabilisticDetector, NeverFlagsDirectTraffic) {
  ProbabilisticWormholeDetector det(0.9);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i)
    EXPECT_FALSE(det.detects(direct_evidence(), rng));
}

TEST(ProbabilisticDetector, FlagsTunneledLinksAtRate) {
  // The p_d draw is per (receiver, sender) link: measure the rate across
  // many distinct links.
  ProbabilisticWormholeDetector det(0.9);
  util::Rng rng(2);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    WormholeEvidence e = tunneled_evidence();
    e.receiver_id = static_cast<std::uint32_t>(i);
    e.sender_id = static_cast<std::uint32_t>(i * 31 + 7);
    if (det.detects(e, rng)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.9, 0.01);
}

TEST(ProbabilisticDetector, VerdictIsStickyPerLink) {
  // Every packet on the same link gets the same verdict (a leash-based
  // detector is deterministic per path) — this is what keeps the false-
  // alert probability per benign pair at (1 - p_d) regardless of how many
  // detecting IDs probe across the tunnel.
  ProbabilisticWormholeDetector det(0.5);
  util::Rng rng(3);
  for (std::uint32_t link = 0; link < 200; ++link) {
    WormholeEvidence e = tunneled_evidence();
    e.receiver_id = link;
    e.sender_id = link + 1000;
    const bool first = det.detects(e, rng);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(det.detects(e, rng), first);
  }
}

TEST(ProbabilisticDetector, SeedChangesLinkVerdicts) {
  ProbabilisticWormholeDetector a(0.5, 1);
  ProbabilisticWormholeDetector b(0.5, 2);
  util::Rng rng(4);
  int differ = 0;
  for (std::uint32_t link = 0; link < 500; ++link) {
    WormholeEvidence e = tunneled_evidence();
    e.receiver_id = link;
    e.sender_id = link + 1;
    if (a.detects(e, rng) != b.detects(e, rng)) ++differ;
  }
  EXPECT_GT(differ, 100);
}

TEST(ProbabilisticDetector, RateZeroAndOne) {
  util::Rng rng(3);
  ProbabilisticWormholeDetector never(0.0);
  ProbabilisticWormholeDetector always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.detects(tunneled_evidence(), rng));
    EXPECT_TRUE(always.detects(tunneled_evidence(), rng));
  }
}

TEST(ProbabilisticDetector, FakedIndicationAlwaysFires) {
  // A malicious beacon that *wants* to look like a wormhole succeeds even
  // against a weak detector — that is the attacker's p_w lever.
  ProbabilisticWormholeDetector det(0.1);
  util::Rng rng(4);
  WormholeEvidence e = direct_evidence();
  e.sender_faked_indication = true;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(det.detects(e, rng));
}

TEST(ProbabilisticDetector, RejectsBadRate) {
  EXPECT_THROW(ProbabilisticWormholeDetector(-0.1), std::invalid_argument);
  EXPECT_THROW(ProbabilisticWormholeDetector(1.1), std::invalid_argument);
  EXPECT_THROW(
      ProbabilisticWormholeDetector(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(GeographicLeash, FlagsImpossiblyFarClaims) {
  GeographicLeashDetector det(4.0);
  util::Rng rng(5);
  WormholeEvidence e = tunneled_evidence();  // claims (800,700) from (0,0)
  EXPECT_TRUE(det.detects(e, rng));
}

TEST(GeographicLeash, PassesPlausibleClaims) {
  GeographicLeashDetector det(4.0);
  util::Rng rng(6);
  EXPECT_FALSE(det.detects(direct_evidence(), rng));
}

TEST(GeographicLeash, MarginAbsorbsBoundaryError) {
  GeographicLeashDetector strict(0.0);
  GeographicLeashDetector lenient(10.0);
  util::Rng rng(7);
  WormholeEvidence e = direct_evidence();
  e.claimed_sender_position = {155, 0};  // 5 ft beyond range
  EXPECT_TRUE(strict.detects(e, rng));
  EXPECT_FALSE(lenient.detects(e, rng));
}

TEST(GeographicLeash, FakedIndicationAlwaysFires) {
  GeographicLeashDetector det(4.0);
  util::Rng rng(8);
  WormholeEvidence e = direct_evidence();
  e.sender_faked_indication = true;
  EXPECT_TRUE(det.detects(e, rng));
}

TEST(GeographicLeash, RejectsNegativeMargin) {
  EXPECT_THROW(GeographicLeashDetector(-1.0), std::invalid_argument);
}

TEST(GeographicLeash, IsDeterministic) {
  GeographicLeashDetector det(4.0);
  util::Rng rng(9);
  const auto e = tunneled_evidence();
  const bool first = det.detects(e, rng);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(det.detects(e, rng), first);
}

}  // namespace
}  // namespace sld::ranging
