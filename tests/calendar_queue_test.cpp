#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/engine.hpp"
#include "sim/reference_queue.hpp"

// Differential fuzz harness for the calendar event queue: the same seeded
// episode of schedule / cancel / run_until operations is replayed against
// CalendarQueue and ReferenceQueue — the pre-calendar heap+map pair kept as
// the executable specification — each under the same small pump (the
// Engine's clock, id and tally bookkeeping), and the two trajectories must
// match exactly: firing order, observed clocks, cancel results, pending()
// probes, and scheduled/fired/cancelled tallies. Episodes deliberately hit
// the nasty corners: same-timestamp bursts, cancel-after-fire, cancel-twice,
// schedule-during-fire, cancel-during-fire, zero-length run_until steps,
// and far-future outliers that skew the bucket width.

namespace smiless::sim {
namespace {

/// The Engine's pump over a bare queue: a clock, monotonically increasing
/// ids from 1, and the EngineStats tallies.
template <class Queue>
class Pump {
 public:
  using Callback = std::function<void()>;

  double now() const { return now_; }

  EventId schedule_at(double t, Callback cb) {
    const EventId id = next_id_++;
    ++stats.scheduled;
    queue_.schedule(t, id, std::move(cb));
    return id;
  }

  bool cancel(EventId id) {
    const bool cancelled = queue_.cancel(id);
    if (cancelled) ++stats.cancelled;
    return cancelled;
  }

  void run_until(double end) {
    double t = 0.0;
    EventId id = 0;
    Callback cb;
    while (queue_.pop_due(end, &t, &id, &cb)) {
      now_ = t;
      ++stats.fired;
      cb();
      cb = nullptr;
    }
    now_ = end;
  }

  void run() { run_until(std::numeric_limits<double>::max()); }

  std::size_t pending() const { return queue_.live(); }

  EngineStats stats;

 private:
  Queue queue_;
  double now_ = 0.0;
  EventId next_id_ = 1;
};

struct Trace {
  std::vector<double> fire_times;
  std::vector<EventId> fire_ids;
  std::vector<double> clock_probes;
  std::vector<bool> cancel_results;
  std::vector<std::size_t> pending_probes;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::size_t final_pending = 0;
  double final_now = 0.0;

  bool operator==(const Trace&) const = default;
};

// Mostly-quantized offsets so exact timestamp collisions are common (both
// within one run_until window and across bucket boundaries); occasionally a
// continuous or far-future draw to exercise width re-tuning.
double next_offset(Rng& rng) {
  const int kind = rng.uniform_int(0, 9);
  if (kind < 6) return 0.25 * rng.uniform_int(0, 12);  // ties, incl. offset 0
  if (kind < 9) return rng.uniform(0.0, 40.0);
  return rng.uniform(1e4, 1e7);  // far-future outlier
}

template <class Queue>
Trace run_episode(std::uint64_t seed, int max_schedules) {
  Rng rng(seed);
  Pump<Queue> e;
  Trace tr;
  std::vector<EventId> ids;  // every id ever issued — fired/cancelled stay in
  int budget = max_schedules;

  std::function<void(double)> schedule_one = [&](double t) {
    auto idp = std::make_shared<EventId>(0);
    *idp = e.schedule_at(t, [&, idp] {
      tr.fire_times.push_back(e.now());
      tr.fire_ids.push_back(*idp);
      if (budget > 0 && rng.bernoulli(0.4)) {  // schedule-during-fire
        --budget;
        schedule_one(e.now() + next_offset(rng));
      }
      if (!ids.empty() && rng.bernoulli(0.3)) {  // cancel-during-fire
        const EventId victim = ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
        tr.cancel_results.push_back(e.cancel(victim));
      }
    });
    ids.push_back(*idp);
  };

  const int steps = max_schedules * 2;
  for (int step = 0; step < steps; ++step) {
    const int op = rng.uniform_int(0, 9);
    if (op <= 4) {
      if (budget > 0) {
        --budget;
        const double t = e.now() + next_offset(rng);
        // Same-timestamp burst: a run of events at one instant.
        const int burst = rng.bernoulli(0.25) ? rng.uniform_int(2, 6) : 1;
        for (int i = 0; i < burst && budget >= 0; ++i) schedule_one(t);
      }
    } else if (op <= 6) {
      if (!ids.empty()) {
        const EventId victim = ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
        tr.cancel_results.push_back(e.cancel(victim));         // may be cancel-after-fire
        if (rng.bernoulli(0.3)) tr.cancel_results.push_back(e.cancel(victim));  // cancel-twice
      }
    } else if (op == 7) {
      e.run_until(e.now() + rng.uniform(0.0, 15.0));
      tr.clock_probes.push_back(e.now());
    } else if (op == 8) {
      e.run_until(e.now());  // zero-length step: drains exactly-now events only
      tr.clock_probes.push_back(e.now());
    } else {
      tr.pending_probes.push_back(e.pending());
    }
  }
  e.run();

  tr.scheduled = e.stats.scheduled;
  tr.fired = e.stats.fired;
  tr.cancelled = e.stats.cancelled;
  tr.final_pending = e.pending();
  tr.final_now = e.now();
  return tr;
}

void expect_identical(std::uint64_t seed, int max_schedules) {
  const Trace cal = run_episode<CalendarQueue>(seed, max_schedules);
  const Trace ref = run_episode<ReferenceQueue>(seed, max_schedules);
  ASSERT_EQ(cal.fire_ids, ref.fire_ids) << "seed " << seed;
  EXPECT_EQ(cal.fire_times, ref.fire_times) << "seed " << seed;
  EXPECT_EQ(cal.clock_probes, ref.clock_probes) << "seed " << seed;
  EXPECT_EQ(cal.cancel_results, ref.cancel_results) << "seed " << seed;
  EXPECT_EQ(cal.pending_probes, ref.pending_probes) << "seed " << seed;
  EXPECT_TRUE(cal == ref) << "seed " << seed;
  // Sanity on the episode itself: non-trivial and internally consistent.
  EXPECT_EQ(cal.scheduled, cal.fired + cal.cancelled + cal.final_pending) << "seed " << seed;
  EXPECT_EQ(cal.final_pending, 0u) << "run() must drain; seed " << seed;
}

// Deep episodes: a moderate number of seeds, several hundred events each.
class DifferentialDeep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialDeep, CalendarMatchesReferenceExactly) {
  expect_identical(GetParam(), 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialDeep,
                         ::testing::Range<std::uint64_t>(1, 25));

// Wide sweep: thousands of short episodes, sharded so sanitizer flavors can
// run them in parallel. Together the shards cover 10k+ seeded iterations.
class DifferentialWide : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialWide, ManySeededEpisodes) {
  constexpr int kShards = 8;
  constexpr int kEpisodesPerShard = 1300;  // 8 * 1300 = 10400 iterations
  const int shard = GetParam();
  for (int i = 0; i < kEpisodesPerShard; ++i) {
    const std::uint64_t seed =
        0xC0FFEEull + static_cast<std::uint64_t>(shard) * kEpisodesPerShard + i;
    expect_identical(seed, 24);
    if (HasFatalFailure()) return;
  }
  (void)kShards;
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialWide, ::testing::Range(0, 8));

// --- Calendar-specific structural coverage ---------------------------------

TEST(CalendarQueue, GrowsAndShrinksAcrossLoad) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i)
    ids.push_back(e.schedule_at(0.001 * i, [] {}));
  EXPECT_GT(e.calendar_stats().buckets, 16u);  // grew past kMinBuckets
  EXPECT_GT(e.calendar_stats().resizes, 0u);
  EXPECT_EQ(e.calendar_stats().peak_live, 5000u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.calendar_stats().buckets, 16u);  // shrank back after the drain
}

TEST(CalendarQueue, SameTimestampPileFiresInScheduleOrder) {
  // A pile of identical timestamps is the calendar's worst case (one bucket
  // takes everything); the tail-append fast path must keep it linear and
  // FIFO must survive the resizes the pile forces.
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 4000; ++i)
    e.schedule_at(7.5, [&order, i] { order.push_back(i); });
  e.run();
  ASSERT_EQ(order.size(), 4000u);
  for (int i = 0; i < 4000; ++i) ASSERT_EQ(order[i], i);
}

TEST(CalendarQueue, SparseTailUsesDirectSearch) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(0.0, [&] { fired.push_back(e.now()); });
  e.schedule_at(5.0e6, [&] { fired.push_back(e.now()); });  // years of empty buckets
  e.run();
  EXPECT_EQ(fired, (std::vector<double>{0.0, 5.0e6}));
  EXPECT_GT(e.calendar_stats().direct_searches, 0u);
}

TEST(CalendarQueue, FarFutureAndInfiniteTimesAreOrderedCorrectly) {
  Engine e;
  std::vector<int> order;
  const EventId inf_ev =
      e.schedule_at(std::numeric_limits<double>::infinity(), [&] { order.push_back(9); });
  e.schedule_at(1.0e18, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_TRUE(e.cancel(inf_ev));
  e.run_until(1.0e19);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(CalendarQueue, CancelEverythingThenReuse) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(e.schedule_at(1.0 + i, [] {}));
  for (EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  int fired = 0;
  e.schedule_at(500.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.stats().cancelled, 200u);
}

// --- The Engine contract, spot-checked on both queues ----------------------

enum class QueueKind { Calendar, Reference };

template <class Queue>
void expect_engine_contract() {
  // The reference model must satisfy the contract the rest of the suite
  // checks on the Engine as much as the calendar does.
  Pump<Queue> e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  const EventId id = e.schedule_at(0.5, [&] { order.push_back(0); });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

class QueueContract : public ::testing::TestWithParam<QueueKind> {};

TEST_P(QueueContract, HonorsTheEngineContract) {
  if (GetParam() == QueueKind::Calendar) {
    expect_engine_contract<CalendarQueue>();
  } else {
    expect_engine_contract<ReferenceQueue>();
  }
}

INSTANTIATE_TEST_SUITE_P(BothQueues, QueueContract,
                         ::testing::Values(QueueKind::Calendar, QueueKind::Reference));

}  // namespace
}  // namespace smiless::sim
