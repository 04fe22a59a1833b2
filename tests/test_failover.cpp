// Base-station failover: primary outages, standby takeover with WAL
// reconciliation, split-brain fencing by epoch, and the acceptance bounds
// (no counted alert lost beyond the fsync window; failover revokes the
// same set as an uninterrupted run).
#include "revocation/failover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "check/invariant.hpp"

namespace sld::revocation {
namespace {

using sim::kMillisecond;
using sim::kSecond;

RevocationConfig revocation(std::uint32_t tau1 = 10, std::uint32_t tau2 = 2) {
  RevocationConfig c;
  c.report_quota = tau1;
  c.alert_threshold = tau2;
  return c;
}

FailoverConfig standby_config(std::vector<OutageWindow> outages,
                              std::uint32_t fsync = 1) {
  FailoverConfig f;
  f.standby_enabled = true;
  f.heartbeat_interval_ns = 500 * kMillisecond;
  f.takeover_timeout_ns = 2 * kSecond;
  f.durable.enabled = true;
  f.durable.fsync_every_records = fsync;
  f.primary_outages = std::move(outages);
  return f;
}

struct TimedAlert {
  sim::SimTime t = 0;
  sim::NodeId reporter = 0;
  sim::NodeId target = 0;
  std::uint64_t nonce = 0;
};

/// Drives a scripted alert schedule through a cluster the way the system's
/// ARQ would: an alert arriving while no station is up is retried 500 ms
/// later (up to 20 times), everything in timestamp order.
void drive(BaseStationCluster& cluster, std::vector<TimedAlert> alerts) {
  std::deque<TimedAlert> queue(alerts.begin(), alerts.end());
  int guard = 0;
  while (!queue.empty() && ++guard < 10'000) {
    std::stable_sort(queue.begin(), queue.end(),
                     [](const TimedAlert& a, const TimedAlert& b) {
                       return a.t < b.t;
                     });
    TimedAlert a = queue.front();
    queue.pop_front();
    if (!cluster.available(a.t)) {
      a.t += 500 * kMillisecond;
      queue.push_back(a);
      continue;
    }
    cluster.process_alert(a.t, a.reporter, a.target, a.nonce);
  }
  ASSERT_LT(guard, 10'000);
}

std::vector<TimedAlert> scripted_alerts() {
  // Three targets; target 50 and 60 cross tau2 = 2, target 70 does not.
  // Timestamps straddle the outage window used by the tests.
  std::vector<TimedAlert> alerts;
  std::uint64_t nonce = 1;
  const sim::SimTime times[] = {1 * kSecond,  2 * kSecond,  11 * kSecond,
                                12 * kSecond, 13 * kSecond, 21 * kSecond,
                                22 * kSecond};
  int i = 0;
  for (const sim::NodeId target : {50u, 60u}) {
    for (const sim::NodeId reporter : {101u, 102u, 103u}) {
      alerts.push_back(
          {times[static_cast<std::size_t>(i++ % 7)], reporter, target,
           nonce++});
    }
  }
  alerts.push_back({times[6], 104, 70, nonce++});
  return alerts;
}

TEST(Failover, DefaultConfigIsPassThrough) {
  BaseStationCluster cluster(revocation(), FailoverConfig{});
  EXPECT_FALSE(FailoverConfig{}.any_enabled());
  EXPECT_TRUE(cluster.transitions().empty());
  EXPECT_TRUE(cluster.available(0));
  EXPECT_EQ(cluster.epoch(), 1u);
  cluster.process_alert(0, 1, 50, 1);
  cluster.process_alert(1, 2, 50, 2);
  cluster.process_alert(2, 3, 50, 3);
  EXPECT_TRUE(cluster.is_revoked(50));
  EXPECT_EQ(cluster.stats().failovers, 0u);
}

TEST(Failover, RestartWithoutStandbyResumesFromDurableState) {
  // No standby: the outage makes the service unavailable until the primary
  // returns, restored from the WAL.
  FailoverConfig f;
  f.durable.enabled = true;
  f.primary_outages = {{10 * kSecond, 14 * kSecond}};
  BaseStationCluster cluster(revocation(), f);
  cluster.process_alert(1 * kSecond, 101, 50, 1);
  cluster.process_alert(2 * kSecond, 102, 50, 2);
  EXPECT_FALSE(cluster.available(11 * kSecond));
  EXPECT_TRUE(cluster.available(14 * kSecond));
  EXPECT_EQ(cluster.stats().restarts, 1u);
  EXPECT_EQ(cluster.epoch(), 1u);  // no takeover happened
  // Durable alerts survived the restart; the next one still revokes.
  EXPECT_EQ(cluster.alert_counter(50), 2u);
  EXPECT_EQ(cluster.process_alert(15 * kSecond, 103, 50, 3),
            AlertDisposition::kAcceptedAndRevoked);
}

TEST(Failover, KillRestartLosesNoCountedAlertBeyondFsyncWindow) {
  // fsync every 4 records, 6 accepted before the kill: the restart must
  // recover at least 6 - (4 - 1) = 3 and exactly the flushed prefix (4).
  FailoverConfig f;
  f.durable.enabled = true;
  f.durable.fsync_every_records = 4;
  f.primary_outages = {{10 * kSecond, 12 * kSecond}};
  BaseStationCluster cluster(revocation(10, 100), f);
  for (std::uint32_t i = 0; i < 6; ++i)
    cluster.process_alert(static_cast<sim::SimTime>(i + 1) * kSecond,
                          101 + i, 50, 1000 + i);
  EXPECT_EQ(cluster.alert_counter(50), 6u);
  cluster.advance(12 * kSecond);  // kill + restart
  const std::uint32_t recovered = cluster.alert_counter(50);
  EXPECT_EQ(recovered, 4u);
  EXPECT_GE(recovered + f.durable.fsync_every_records, 6u + 1u);
  EXPECT_EQ(cluster.wal().stats().records_lost, 2u);
  EXPECT_EQ(cluster.accepted_distinct(50), 6u);
}

TEST(Failover, StandbyTakesOverAfterTimeoutAndBumpsEpoch) {
  BaseStationCluster cluster(revocation(),
                             standby_config({{10 * kSecond, 30 * kSecond}}));
  cluster.process_alert(1 * kSecond, 101, 50, 1);
  EXPECT_FALSE(cluster.available(11 * kSecond));
  // Last heartbeat at 10 s (interval 500 ms), takeover timeout 2 s: the
  // standby promotes itself at 12 s.
  EXPECT_FALSE(cluster.available(11'900 * kMillisecond));
  EXPECT_TRUE(cluster.available(12 * kSecond));
  EXPECT_EQ(cluster.epoch(), 2u);
  EXPECT_EQ(cluster.stats().failovers, 1u);
  // The standby reconciled from the WAL: earlier evidence still counts.
  EXPECT_EQ(cluster.alert_counter(50), 1u);
  cluster.process_alert(13 * kSecond, 102, 50, 2);
  EXPECT_EQ(cluster.process_alert(14 * kSecond, 103, 50, 3),
            AlertDisposition::kAcceptedAndRevoked);
}

TEST(Failover, ReturningPrimaryIsFencedBehindHigherEpoch) {
  BaseStationCluster cluster(revocation(),
                             standby_config({{10 * kSecond, 30 * kSecond}}));
  cluster.advance(31 * kSecond);
  EXPECT_EQ(cluster.stats().failovers, 1u);
  EXPECT_EQ(cluster.stats().fences, 1u);
  EXPECT_EQ(cluster.stats().restarts, 0u);
  EXPECT_EQ(cluster.epoch(), 2u);
  // The standby stays the authority after the primary's return.
  cluster.process_alert(32 * kSecond, 101, 50, 1);
  EXPECT_EQ(cluster.alert_counter(50), 1u);
}

TEST(Failover, OutageShorterThanTakeoverTimeoutNeverPromotes) {
  // 1 s outage < 2 s takeover timeout: the standby never fires; the
  // primary restarts in place.
  BaseStationCluster cluster(revocation(),
                             standby_config({{10 * kSecond, 11 * kSecond}}));
  cluster.advance(20 * kSecond);
  EXPECT_EQ(cluster.stats().failovers, 0u);
  EXPECT_EQ(cluster.stats().restarts, 1u);
  EXPECT_EQ(cluster.epoch(), 1u);
}

TEST(Failover, FailoverRevokesExactlyTheUninterruptedSet) {
  // Acceptance bound: the same alert schedule (with ARQ-style retries
  // around the outage) revokes the same target set with and without the
  // outage, because fsync = 1 loses nothing and nonce dedup absorbs the
  // retries.
  const auto alerts = scripted_alerts();

  BaseStationCluster uninterrupted(revocation(), FailoverConfig{});
  drive(uninterrupted, alerts);

  BaseStationCluster failover(
      revocation(), standby_config({{10 * kSecond, 60 * kSecond}}));
  drive(failover, alerts);

  EXPECT_EQ(failover.stats().failovers, 1u);
  EXPECT_EQ(failover.authority().revocation_order(),
            uninterrupted.authority().revocation_order());
  for (const sim::NodeId target : {50u, 60u, 70u}) {
    EXPECT_EQ(failover.is_revoked(target), uninterrupted.is_revoked(target))
        << "target " << target;
    EXPECT_EQ(failover.alert_counter(target),
              uninterrupted.alert_counter(target))
        << "target " << target;
  }
}

TEST(Failover, AdvanceBackwardsViolatesInvariant) {
  if (!check::invariants_enabled()) GTEST_SKIP() << "invariants off";
  static int violations;
  violations = 0;
  check::ScopedInvariantHandler guard(
      [](const check::InvariantViolation&) { ++violations; });
  BaseStationCluster cluster(revocation(), FailoverConfig{});
  cluster.advance(10 * kSecond);
  cluster.advance(5 * kSecond);
  EXPECT_EQ(violations, 1);
}

TEST(Failover, InvalidConfigRejected) {
  FailoverConfig bad_hb;
  bad_hb.heartbeat_interval_ns = 0;
  EXPECT_THROW(BaseStationCluster(revocation(), bad_hb),
               std::invalid_argument);

  FailoverConfig empty_window;
  empty_window.primary_outages = {{5, 5}};
  EXPECT_THROW(BaseStationCluster(revocation(), empty_window),
               std::invalid_argument);

  FailoverConfig overlapping;
  overlapping.primary_outages = {{0, 10}, {5, 20}};
  EXPECT_THROW(BaseStationCluster(revocation(), overlapping),
               std::invalid_argument);
}

}  // namespace
}  // namespace sld::revocation
