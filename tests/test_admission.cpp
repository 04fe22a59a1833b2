// Admission-control semantics: token buckets, the (reporter, target) pair
// rule, and the circuit-breaker state machine — including property tests
// (tests/prop/prop.hpp) that the breaker always re-closes and that its
// state is a pure function of the stall schedule and last shed time.
#include "revocation/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "prop/prop.hpp"
#include "sim/time.hpp"

namespace sld::revocation {
namespace {

AdmissionConfig admission(double rate = 5.0, double burst = 8.0) {
  AdmissionConfig a;
  a.enabled = true;
  a.reporter_rate_per_s = rate;
  a.reporter_burst = burst;
  return a;
}

AdmissionController make(const AdmissionConfig& cfg,
                         const std::vector<StallWindow>& stalls = {}) {
  return AdmissionController(cfg, stalls);
}

TEST(Admission, TokenBucketCapsSustainedRate) {
  // 2 tokens/s, burst 2: two immediate admits, then dry until refill.
  auto ctl = make(admission(/*rate=*/2.0, /*burst=*/2.0));
  EXPECT_EQ(ctl.admit(1, 50, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 51, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 52, 0),
            AdmissionController::Decision::kRateLimited);
  // Half a second refills one token.
  EXPECT_EQ(ctl.admit(1, 52, 500 * sim::kMillisecond),
            AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 53, 500 * sim::kMillisecond),
            AdmissionController::Decision::kRateLimited);
}

TEST(Admission, BucketsArePerReporter) {
  auto ctl = make(admission(/*rate=*/1.0, /*burst=*/1.0));
  EXPECT_EQ(ctl.admit(1, 50, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 51, 0),
            AdmissionController::Decision::kRateLimited);
  // A different reporter has its own full bucket.
  EXPECT_EQ(ctl.admit(2, 51, 0), AdmissionController::Decision::kAdmit);
}

TEST(Admission, PairRuleAbsorbsRepeatAccusations) {
  auto ctl = make(admission());
  EXPECT_EQ(ctl.admit(1, 50, 0), AdmissionController::Decision::kAdmit);
  ctl.remember_pair(1, 50);
  EXPECT_EQ(ctl.admit(1, 50, 0),
            AdmissionController::Decision::kDuplicatePair);
  // Other targets (and other reporters at this target) still pass.
  EXPECT_EQ(ctl.admit(1, 51, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.admit(2, 50, 0), AdmissionController::Decision::kAdmit);
}

TEST(Admission, PairRuleChecksBeforeSpendingTokens) {
  // An absorbed repeat must not drain the bucket: with burst 1, the admit
  // after a duplicate still has its token.
  auto ctl = make(admission(/*rate=*/1.0, /*burst=*/1.0));
  EXPECT_EQ(ctl.admit(1, 50, 0), AdmissionController::Decision::kAdmit);
  ctl.remember_pair(1, 50);
  // Refill fully, then probe the duplicate repeatedly.
  const sim::SimTime t = 2 * sim::kSecond;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ctl.admit(1, 50, t),
              AdmissionController::Decision::kDuplicatePair);
  }
  EXPECT_EQ(ctl.admit(1, 51, t), AdmissionController::Decision::kAdmit);
}

TEST(Admission, BreakerFollowsStallSchedule) {
  AdmissionConfig cfg = admission();
  cfg.breaker_trip_ns = 500 * sim::kMillisecond;
  cfg.breaker_cooldown_ns = 2 * sim::kSecond;
  // Stall [1s, 3s): degraded from 1.5s, recovering [3s, 5s), then closed.
  auto ctl = make(cfg, {{1 * sim::kSecond, 3 * sim::kSecond}});
  EXPECT_EQ(ctl.state(0), BreakerState::kClosed);
  EXPECT_EQ(ctl.state(1200 * sim::kMillisecond), BreakerState::kClosed);
  EXPECT_EQ(ctl.state(1500 * sim::kMillisecond), BreakerState::kDegraded);
  EXPECT_EQ(ctl.state(2999 * sim::kMillisecond), BreakerState::kDegraded);
  EXPECT_EQ(ctl.state(3 * sim::kSecond), BreakerState::kRecovering);
  EXPECT_EQ(ctl.state(4999 * sim::kMillisecond), BreakerState::kRecovering);
  EXPECT_EQ(ctl.state(5 * sim::kSecond), BreakerState::kClosed);
}

TEST(Admission, ShortStallNeverTrips) {
  AdmissionConfig cfg = admission();
  cfg.breaker_trip_ns = 500 * sim::kMillisecond;
  // 300 ms stall < trip threshold: the breaker never reads degraded.
  auto ctl = make(cfg, {{1 * sim::kSecond, 1300 * sim::kMillisecond}});
  for (sim::SimTime t = 0; t < 3 * sim::kSecond;
       t += 50 * sim::kMillisecond) {
    EXPECT_NE(ctl.state(t), BreakerState::kDegraded) << "at t=" << t;
  }
}

TEST(Admission, ShedHoldsBreakerOpenForReopenWindow) {
  AdmissionConfig cfg = admission();
  cfg.shed_reopen_ns = 1 * sim::kSecond;
  auto ctl = make(cfg);
  EXPECT_EQ(ctl.state(10 * sim::kSecond), BreakerState::kClosed);
  ctl.note_shed(10 * sim::kSecond);
  EXPECT_EQ(ctl.state(10 * sim::kSecond), BreakerState::kShedding);
  EXPECT_EQ(ctl.state(10 * sim::kSecond + 999 * sim::kMillisecond),
            BreakerState::kShedding);
  EXPECT_EQ(ctl.state(11 * sim::kSecond), BreakerState::kClosed);
}

/// The constructor rejects `cfg`, naming `field`.
void expect_rejected(const AdmissionConfig& cfg, const std::string& field) {
  try {
    make(cfg);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Admission, RejectsNonsenseConfig) {
  AdmissionConfig bad = admission();
  bad.breaker_trip_ns = 0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  EXPECT_THROW(make(admission(), {{2 * sim::kSecond, 1 * sim::kSecond}}),
               std::invalid_argument);
  // A NaN or infinite rate or burst would switch the rate gate off.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double x : {-1.0, kNan, kInf}) {
    expect_rejected(admission(x, 8.0), "reporter_rate_per_s");
    expect_rejected(admission(5.0, x), "reporter_burst");
  }
}

// ---------------------------------------------------------------------------
// Properties. Each case is a pure function of its SLD_PROP_SEED-replayable
// case seed (see tests/prop/prop.hpp).

/// Random sorted non-overlapping stall schedule: durations and gaps in
/// milliseconds, shrinking toward fewer/shorter stalls.
prop::Gen<std::vector<std::int64_t>> stall_spec() {
  return prop::vector_of(prop::int_range(1, 4000), 0, 6);
}

std::vector<StallWindow> windows_from(const std::vector<std::int64_t>& spec) {
  std::vector<StallWindow> out;
  sim::SimTime cursor = 500 * sim::kMillisecond;
  for (std::size_t i = 0; i + 1 < spec.size(); i += 2) {
    const sim::SimTime duration = spec[i] * sim::kMillisecond;
    const sim::SimTime gap = spec[i + 1] * sim::kMillisecond;
    out.push_back({cursor, cursor + duration});
    cursor += duration + gap + 1;  // +1 keeps windows strictly disjoint
  }
  return out;
}

TEST(AdmissionProperty, BreakerAlwaysReCloses) {
  // Whatever the stall schedule and shed history, once the last stall has
  // cleared and both the cooldown and shed-reopen windows have elapsed,
  // the breaker reads closed — degraded/shedding are never absorbing.
  prop::forall<std::vector<std::int64_t>>(
      "breaker re-closes after quiescence", stall_spec(),
      [](const std::vector<std::int64_t>& spec, util::Rng& rng) {
        AdmissionConfig cfg = admission();
        cfg.breaker_trip_ns = 200 * sim::kMillisecond;
        cfg.breaker_cooldown_ns = 1 * sim::kSecond;
        cfg.shed_reopen_ns = 1 * sim::kSecond;
        const auto windows = windows_from(spec);
        AdmissionController ctl(cfg, windows);
        sim::SimTime horizon = 0;
        for (const auto& w : windows) horizon = std::max(horizon, w.end);
        // A shed at a random instant inside the active region.
        const sim::SimTime shed_at = static_cast<sim::SimTime>(
            rng.uniform_u64(static_cast<std::uint64_t>(horizon + 1)));
        ctl.note_shed(shed_at);
        const sim::SimTime quiet =
            std::max(horizon, shed_at) + cfg.breaker_cooldown_ns +
            cfg.shed_reopen_ns;
        return ctl.state(quiet) == BreakerState::kClosed &&
               ctl.state(quiet + 7 * sim::kSecond) == BreakerState::kClosed;
      });
}

TEST(AdmissionProperty, BreakerStateIsPureAndMonotoneThroughSchedule) {
  // state(t) queried in any order gives identical answers (pure function,
  // no hidden latching), and degraded holds exactly inside
  // [start + trip, end) of some stall window.
  prop::forall<std::vector<std::int64_t>>(
      "breaker state pure in t", stall_spec(),
      [](const std::vector<std::int64_t>& spec, util::Rng& rng) {
        AdmissionConfig cfg = admission();
        cfg.breaker_trip_ns = 200 * sim::kMillisecond;
        const auto windows = windows_from(spec);
        AdmissionController ctl(cfg, windows);
        sim::SimTime horizon = sim::kSecond;
        for (const auto& w : windows) horizon = std::max(horizon, w.end);
        for (int i = 0; i < 64; ++i) {
          const sim::SimTime t = static_cast<sim::SimTime>(
              rng.uniform_u64(static_cast<std::uint64_t>(2 * horizon)));
          bool in_degraded_interval = false;
          for (const auto& w : windows) {
            in_degraded_interval |=
                t >= w.start + cfg.breaker_trip_ns && t < w.end;
          }
          const BreakerState s = ctl.state(t);
          if ((s == BreakerState::kDegraded) != in_degraded_interval)
            return false;
          if (ctl.state(t) != s) return false;  // re-query is identical
        }
        return true;
      });
}

}  // namespace
}  // namespace sld::revocation
