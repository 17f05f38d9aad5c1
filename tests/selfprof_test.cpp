// Runtime self-profiler suite (DESIGN.md §15).
//
// Contracts under test:
//  - exclusive accounting: with a root scope bracketing the run, the
//    exclusive times of all sites sum *exactly* to the root's inclusive
//    time (the bench's ">= 90% coverage" invariant, by construction);
//  - merge() is order-invariant and grouping-invariant, and keeps a
//    per-lane breakdown; a lane nested in the coordinator's scope is not
//    timed twice;
//  - a null profiler pointer is a true no-op (the zero-overhead-when-off
//    story);
//  - attaching a profiler to a real cell never moves the trajectory: the
//    results and every comparable artifact stay byte-identical.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"

using namespace smiless;

namespace {

std::uint64_t exclusive_sum(const prof::Profiler& p) {
  std::uint64_t sum = 0;
  for (const prof::SiteAgg& a : p.sites()) sum += a.exclusive_ns;
  return sum;
}

/// Busy-wait a little so scopes accumulate nonzero wall time. Wall-clock by
/// design: this file tests the quarantined profiler itself.
void burn() {
  const std::uint64_t t0 = prof::now_ns();
  while (prof::now_ns() - t0 < 50'000) {
  }
}

TEST(SelfProfiler, ExclusiveTimesSumExactlyToRootInclusive) {
  prof::Profiler p;
  p.enter(prof::Site::CellRun);
  burn();
  for (int i = 0; i < 3; ++i) {
    p.enter(prof::Site::EngineRun);
    burn();
    p.enter(prof::Site::Dispatch);
    burn();
    p.leave();
    p.enter(prof::Site::GatewayWindow);
    p.enter(prof::Site::PolicyWindow);
    burn();
    p.leave();
    p.leave();
    p.leave();
  }
  p.leave();

  ASSERT_GT(p.root_ns(), 0u);
  // The telescoping child_ns bookkeeping makes this equality exact, not
  // approximate: every nanosecond inside the root is charged to exactly one
  // site's exclusive bucket.
  EXPECT_EQ(exclusive_sum(p), p.root_ns());
  EXPECT_EQ(p.sites()[static_cast<std::size_t>(prof::Site::EngineRun)].count, 3u);
  EXPECT_EQ(p.sites()[static_cast<std::size_t>(prof::Site::Dispatch)].count, 3u);
}

/// A lane profiler working on the coordinator's thread nests in whatever
/// coordinator scope is open: after the merge, Σ exclusive over both still
/// equals the root, and the lane keeps its own breakdown.
TEST(SelfProfiler, NestedLaneIsNotTimedTwice) {
  prof::Profiler cell;
  prof::Profiler lane(0);
  lane.nest_in(&cell);
  cell.enter(prof::Site::CellRun);
  lane.enter(prof::Site::EngineSchedule);  // a deploy: directly under the root
  burn();
  lane.leave();
  cell.enter(prof::Site::ShardBarrier);
  burn();
  lane.enter(prof::Site::LaneStep);  // a window step inside the barrier
  lane.enter(prof::Site::EngineRun);
  burn();
  lane.leave();
  lane.leave();
  cell.leave();
  cell.merge(lane);
  cell.leave();

  ASSERT_GT(cell.root_ns(), 0u);
  EXPECT_EQ(exclusive_sum(cell), cell.root_ns());
  const auto barrier = cell.sites()[static_cast<std::size_t>(prof::Site::ShardBarrier)];
  const auto step = cell.sites()[static_cast<std::size_t>(prof::Site::LaneStep)];
  EXPECT_EQ(barrier.exclusive_ns, barrier.inclusive_ns - step.inclusive_ns);
  ASSERT_EQ(cell.lanes().size(), 1u);
  EXPECT_EQ(cell.lanes()[0].sites[static_cast<std::size_t>(prof::Site::LaneStep)].count, 1u);
}

TEST(SelfProfiler, NullProfilerScopeTimerIsANoop) {
  // Must not crash nor allocate; the whole off-path is one branch.
  for (int i = 0; i < 1000; ++i) {
    prof::ScopeTimer a(nullptr, prof::Site::EngineRun);
    prof::ScopeTimer b(nullptr, prof::Site::Dispatch);
  }
  SUCCEED();
}

prof::Profiler make_donor(int lane, int scopes) {
  prof::Profiler p(lane);
  for (int i = 0; i < scopes; ++i) {
    p.enter(prof::Site::LaneStep);
    p.enter(prof::Site::EngineRun);
    burn();
    p.leave();
    p.leave();
    p.sample(static_cast<double>(i), prof::Counter::EngineFired, static_cast<double>(i));
  }
  return p;
}

void expect_same_totals(const prof::Profiler& a, const prof::Profiler& b) {
  for (std::size_t i = 0; i < prof::kSiteCount; ++i) {
    EXPECT_EQ(a.sites()[i].count, b.sites()[i].count);
    EXPECT_EQ(a.sites()[i].inclusive_ns, b.sites()[i].inclusive_ns);
    EXPECT_EQ(a.sites()[i].exclusive_ns, b.sites()[i].exclusive_ns);
  }
  ASSERT_EQ(a.lanes().size(), b.lanes().size());
  for (std::size_t l = 0; l < a.lanes().size(); ++l) {
    EXPECT_EQ(a.lanes()[l].lane, b.lanes()[l].lane);
    for (std::size_t i = 0; i < prof::kSiteCount; ++i) {
      EXPECT_EQ(a.lanes()[l].sites[i].inclusive_ns, b.lanes()[l].sites[i].inclusive_ns);
      EXPECT_EQ(a.lanes()[l].sites[i].exclusive_ns, b.lanes()[l].sites[i].exclusive_ns);
    }
  }
  EXPECT_EQ(a.samples().size(), b.samples().size());
}

TEST(SelfProfiler, MergeIsOrderInvariantAndKeepsLaneBreakdown) {
  const prof::Profiler a = make_donor(0, 2);
  const prof::Profiler b = make_donor(1, 3);
  const prof::Profiler c = make_donor(2, 1);

  prof::Profiler forward;
  forward.merge(a);
  forward.merge(b);
  forward.merge(c);

  prof::Profiler backward;
  backward.merge(c);
  backward.merge(b);
  backward.merge(a);

  expect_same_totals(forward, backward);
  ASSERT_EQ(forward.lanes().size(), 3u);
  EXPECT_EQ(forward.lanes()[0].lane, 0);
  EXPECT_EQ(forward.lanes()[1].lane, 1);
  EXPECT_EQ(forward.lanes()[2].lane, 2);
  EXPECT_EQ(forward.lanes()[1].sites[static_cast<std::size_t>(prof::Site::LaneStep)].count,
            3u);
}

TEST(SelfProfiler, MergeIsGroupingInvariant) {
  const prof::Profiler a = make_donor(0, 2);
  const prof::Profiler b = make_donor(1, 2);
  const prof::Profiler c = make_donor(2, 2);

  // (a + b) + c
  prof::Profiler left;
  left.merge(a);
  left.merge(b);
  left.merge(c);

  // a + (b + c): the intermediate has its own lane breakdown already, which
  // merge must adopt without double-counting.
  prof::Profiler mid;
  mid.merge(b);
  mid.merge(c);
  prof::Profiler right;
  right.merge(a);
  right.merge(mid);

  expect_same_totals(left, right);
}

TEST(SelfProfiler, SnapshotCarriesTotalsThroughRawBytes) {
  prof::Profiler p;
  p.enter(prof::Site::CellRun);
  burn();
  p.leave();
  const prof::Snapshot s = p.snapshot();
  EXPECT_EQ(s.root_ns, p.root_ns());

  // The bench ships snapshots through a fork pipe as raw bytes.
  char buf[sizeof(prof::Snapshot)];
  std::memcpy(buf, &s, sizeof(s));
  prof::Snapshot back{};
  std::memcpy(&back, buf, sizeof(back));
  EXPECT_EQ(back.root_ns, s.root_ns);
  EXPECT_EQ(back.sites[static_cast<std::size_t>(prof::Site::CellRun)].inclusive_ns,
            s.sites[static_cast<std::size_t>(prof::Site::CellRun)].inclusive_ns);

  const json::Value v = prof::snapshot_to_json(s);
  EXPECT_EQ(v.get("coverage", 0.0), 1.0);
  EXPECT_GT(v.get("total_ms", 0.0), 0.0);
}

exp::ExperimentConfig small_cell() {
  exp::ExperimentConfig c;
  c.app = "wl1";
  c.policy = "orion";
  c.trace.duration = 60.0;
  c.obs.metrics_out = "unused.json";  // collect on, nothing written
  return c;
}

exp::Runner& runner() {
  static exp::Runner r(exp::RunnerOptions{});
  return r;
}

/// Attaching the profiler (RunnerOptions-forced, the sweep path) must be
/// unobservable in the trajectory and in every comparable artifact.
TEST(SelfProfiler, ProfilingNeverMovesTheTrajectory) {
  const auto& store = runner().profiles(2024);
  const exp::CellResult off = exp::Runner::run_cell(small_cell(), store,
                                                    runner().policy_pool(), 0,
                                                    /*force_profile=*/false);
  const exp::CellResult on = exp::Runner::run_cell(small_cell(), store,
                                                   runner().policy_pool(), 0,
                                                   /*force_profile=*/true);
  EXPECT_EQ(off.profile, nullptr);
  ASSERT_NE(on.profile, nullptr);

  EXPECT_EQ(off.result.cost, on.result.cost);
  EXPECT_EQ(off.result.e2e, on.result.e2e);
  EXPECT_EQ(off.result.completed, on.result.completed);
  EXPECT_EQ(off.result.invocations, on.result.invocations);
  ASSERT_NE(off.telemetry, nullptr);
  ASSERT_NE(on.telemetry, nullptr);
  EXPECT_EQ(off.telemetry->metrics_json().dump(), on.telemetry->metrics_json().dump());

  // The attached profiler saw the run end-to-end: rooted, fully covered,
  // with the instrumented subsystems populated.
  EXPECT_GT(on.profile->root_ns(), 0u);
  EXPECT_EQ(exclusive_sum(*on.profile), on.profile->root_ns());
  EXPECT_GT(on.profile->sites()[static_cast<std::size_t>(prof::Site::EngineRun)].count, 0u);
  EXPECT_GT(on.profile->sites()[static_cast<std::size_t>(prof::Site::Dispatch)].count, 0u);
  EXPECT_FALSE(on.profile->samples().empty());

  const json::Value j = on.profile->to_json();
  EXPECT_GE(j.get("coverage", 0.0), 0.9);
  const json::Value events = on.profile->perfetto_events(0);
  EXPECT_GT(events.items().size(), 0u);
}

}  // namespace
