// RequestTracker keeps state only for live requests: a request takes a slot
// in admit() and gives it back at its terminal transition, and its id then
// resolves to "terminal" for good. These tests pin the pool's bound, the
// stale-id paths (a late batch completion, an eviction retry) against a
// newer request that reuses the slot, the footprint accounting, and the
// traces of a faulty cell against the full-history tracker's.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "serverless/platform.hpp"
#include "serverless/platform_view.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {
namespace {

class FixedPolicy : public Policy {
 public:
  explicit FixedPolicy(FunctionPlan plan) : plan_(plan) {}
  std::string name() const override { return "fixed"; }
  void on_deploy(AppId app, const apps::App& spec, PlatformView& p) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), plan_);
  }

 private:
  FunctionPlan plan_;
};

FunctionPlan warm_plan() {
  FunctionPlan p;
  p.config = {perf::Backend::Cpu, 4, 0};
  p.keepalive = FunctionPlan::forever();
  return p;
}

apps::App single_node_app() {
  apps::App app;
  app.name = "single";
  app.sla = 30.0;
  app.dag.add_node("QA");
  app.truth.push_back(apps::model_by_name("QA"));
  return app;
}

struct Fixture {
  sim::Engine engine;
  cluster::Cluster cluster;
  Rng rng{123};
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<Platform> platform;

  explicit Fixture(PlatformOptions options = {}, faults::FaultSpec spec = {},
                   cluster::Cluster cl = cluster::Cluster::paper_testbed())
      : cluster(std::move(cl)) {
    options.inference_noise = 0.0;
    injector = std::make_unique<faults::FaultInjector>(spec, rng);
    if (injector->enabled()) options.faults = injector.get();
    platform = std::make_unique<Platform>(engine, cluster, perf::Pricing{}, rng, options);
    injector->arm(engine, cluster);
  }
};

/// Sequential voice-assistant requests, each done long before the next.
TrackerMemory run_sequential(int n) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  for (int i = 0; i < n; ++i) f.platform->submit_request(id, 1.0 + 20.0 * i);
  const double end = 20.0 * (n + 1);
  f.engine.run_until(end);
  f.platform->finalize(end);
  EXPECT_EQ(f.platform->metrics(id).completed.size(), static_cast<std::size_t>(n));
  return f.platform->tracker_memory();
}

TEST(RequestTracker, LiveSlotsStayBoundedByInFlightRequests) {
  const TrackerMemory m = run_sequential(50);
  // One request in flight at a time through a width-1 pipeline: one slot,
  // reused 49 times, not one per request.
  EXPECT_EQ(m.peak_live_slots, 1u);
  EXPECT_EQ(m.live_slots, 0u);
  EXPECT_EQ(m.admitted, 50u);
}

TEST(RequestTracker, FinishedRequestsCostOnlyTheirIndexEntry) {
  const TrackerMemory small = run_sequential(20);
  const TrackerMemory big = run_sequential(200);
  EXPECT_EQ(big.admitted, 200u);
  // Slots and per-node arrays do not grow with the number of requests...
  EXPECT_EQ(big.slot_bytes, small.slot_bytes);
  EXPECT_EQ(big.node_bytes, small.node_bytes);
  EXPECT_GT(big.slot_bytes + big.node_bytes, 0u);
  // ...and the id index holds one 4-byte entry per request, inside a vector
  // whose geometric growth reserves at most as much again.
  EXPECT_GE(big.index_bytes, 4 * big.admitted);
  EXPECT_LE(big.index_bytes, 8 * big.admitted);
  EXPECT_EQ(big.bytes(), big.slot_bytes + big.node_bytes + big.index_bytes);
}

/// One warm QA instance serves W1, W2 and A back to back (d seconds each).
/// A times out at 2.5 d, halfway through its batch, and gives its slot back;
/// B arrives at 2.6 d and takes that slot (the free list is LIFO). A's batch
/// still finishes at 3 d.
struct SlotReuseCell {
  Fixture f;
  AppId id = 0;
  double d = 0.0;
  const double t0 = 30.0;

  explicit SlotReuseCell(cluster::Cluster cl = cluster::Cluster::paper_testbed())
      : f(timeout_options(), {}, std::move(cl)) {
    const apps::App app = single_node_app();
    d = app.truth[0].inference_time(warm_plan().config, 1);
    id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
    EXPECT_TRUE(f.platform->spawn_instance(id, 0));  // warm by t0
    for (int i = 0; i < 3; ++i) f.platform->submit_request(id, t0);  // W1, W2, A
    f.platform->submit_request(id, t0 + 2.6 * d);                    // B
  }

  static PlatformOptions timeout_options() {
    PlatformOptions options;
    options.request_timeout = 2.5 * single_node_app().truth[0].inference_time(
                                        warm_plan().config, 1);
    return options;
  }
};

TEST(RequestTracker, LateCompletionOfAFailedRequestLeavesTheSlotsNewOccupantAlone) {
  SlotReuseCell c;
  c.f.engine.run_until(200.0);
  c.f.platform->finalize(200.0);

  const auto& m = c.f.platform->metrics(c.id);
  EXPECT_EQ(m.failed, 1);  // A
  EXPECT_EQ(m.total_timeouts(), 1);
  // W1, W2, then B: served only after A's batch ends at 3 d, done at 4 d.
  // Had A's late completion reached B through the shared slot, B would have
  // closed at 3 d.
  ASSERT_EQ(m.completed.size(), 3u);
  EXPECT_NEAR(m.completed[0].completion, c.t0 + c.d, 1e-9);
  EXPECT_NEAR(m.completed[1].completion, c.t0 + 2 * c.d, 1e-9);
  EXPECT_NEAR(m.completed[2].arrival, c.t0 + 2.6 * c.d, 1e-9);
  EXPECT_NEAR(m.completed[2].completion, c.t0 + 4 * c.d, 1e-9);
  const TrackerMemory mem = c.f.platform->tracker_memory();
  EXPECT_EQ(mem.peak_live_slots, 3u);  // B reused A's slot
  EXPECT_EQ(mem.live_slots, 0u);
}

TEST(RequestTracker, EvictionSkipsAReleasedIdWithoutSpendingARetry) {
  // Two machines: the warm instance sits on machine 0, which goes down at
  // 2.8 d while A's batch (A already timed out) is still running on it.
  SlotReuseCell c(cluster::Cluster(2, {8, 0}));
  c.f.engine.schedule_at(c.t0 + 2.8 * c.d, [&] { c.f.cluster.mark_down(0); });
  c.f.engine.run_until(200.0);
  c.f.platform->finalize(200.0);

  const auto& m = c.f.platform->metrics(c.id);
  EXPECT_EQ(m.total_evictions(), 1);
  // A's in-flight invocation is terminal: it is not re-queued and spends no
  // retry, and B (queued, not in flight) is not charged one either.
  EXPECT_EQ(m.total_retries(), 0);
  EXPECT_EQ(m.completed.size() + static_cast<std::size_t>(m.failed), 4u);
  EXPECT_EQ(c.f.platform->in_flight(c.id), 0);
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every outcome of a traced, faulty fan-out cell as exact (hex-float)
/// text: traces span by span, completion records, per-function counters and
/// the engine's event counts.
std::string faulty_cell_digest(TrackerMemory* memory) {
  PlatformOptions options;
  options.record_traces = true;
  options.request_timeout = 12.0;
  options.max_retries = 0;
  faults::FaultSpec spec;
  spec.init_failure_prob = 0.1;
  spec.straggler_prob = 0.05;
  spec.crashes.push_back({/*machine=*/0, /*at=*/60.0, /*duration=*/30.0});
  Fixture f(options, spec, cluster::Cluster(2, {12, 0}));
  FunctionPlan plan = warm_plan();
  plan.keepalive = 4.0;
  plan.max_batch = 2;
  const apps::App app = apps::make_amber_alert();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  for (int i = 0; i < 240; ++i) f.platform->submit_request(id, 1.0 + 0.55 * i);
  f.engine.run_until(400.0);
  f.platform->finalize(400.0);

  std::ostringstream os;
  os << std::hexfloat;
  const auto& m = f.platform->metrics(id);
  os << "submitted " << m.submitted << " failed " << m.failed << '\n';
  for (const auto& r : m.completed) os << r.arrival << ' ' << r.completion << '\n';
  for (const auto& t : m.traces) {
    os << "trace " << t.arrival << ' ' << t.completion << '\n';
    for (const auto& s : t.spans)
      os << s.node << ' ' << s.ready << ' ' << s.start << ' ' << s.end << ' ' << s.batch << ' '
         << s.cold << ' ' << s.attempt << '\n';
  }
  for (const auto& fm : m.per_function)
    os << fm.invocations << ' ' << fm.retries << ' ' << fm.evictions << ' ' << fm.timeouts
       << ' ' << fm.cost << '\n';
  const sim::EngineStats& es = f.engine.stats();
  os << "events " << es.scheduled << ' ' << es.fired << ' ' << es.cancelled << '\n';
  if (memory != nullptr) *memory = f.platform->tracker_memory();
  return os.str();
}

TEST(RequestTracker, TracedFaultyCellMatchesTheFullHistoryTracker) {
  // Pinned from the tracker that kept a RequestState for every request it
  // ever admitted: recycling slots must not move a single span, record,
  // counter or engine event. With no retry budget, a request that cannot
  // get an instance fails while its node walk is still enqueueing siblings,
  // so the cell also covers the timeouts armed after such a failure.
  TrackerMemory mem;
  const std::string digest = faulty_cell_digest(&mem);
  EXPECT_EQ(fnv1a64(digest), 0x6c1ffe9b49990652ull) << digest.substr(0, 2000);
  EXPECT_EQ(mem.admitted, 240u);
  EXPECT_LT(mem.peak_live_slots, mem.admitted);
}

}  // namespace
}  // namespace smiless::serverless
