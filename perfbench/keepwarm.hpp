#pragma once

#include <string>

#include "apps/app.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/policy.hpp"

namespace perfbench {

/// The fleets' policy: every function keeps a warm instance with a finite
/// keep-alive and batching, so the platform's lifecycle paths (keep-alive
/// timers cancelled on reuse, reaping, batching) run while the policy itself
/// costs nothing. The default plan uses 4 cores: on 1 core the three-node
/// pipelines need 3.6 s against their 2 s SLA and their queues never drain.
/// It counts the windows it is told about.
class KeepWarmPolicy final : public smiless::serverless::Policy {
 public:
  explicit KeepWarmPolicy(smiless::serverless::FunctionPlan plan = default_plan()) : plan_(plan) {}

  static smiless::serverless::FunctionPlan default_plan() {
    smiless::serverless::FunctionPlan plan;
    plan.config = smiless::perf::HwConfig{smiless::perf::Backend::Cpu, 4, 0};
    plan.keepalive = 60.0;
    plan.max_batch = 4;
    return plan;
  }

  std::string name() const override { return "bench-keepwarm"; }
  void on_deploy(smiless::serverless::AppId app, const smiless::apps::App& spec,
                 smiless::serverless::PlatformView& platform) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      platform.set_plan(app, static_cast<smiless::dag::NodeId>(n), plan_);
  }
  void on_window(smiless::serverless::AppId, const smiless::apps::App&,
                 smiless::serverless::PlatformView&,
                 const smiless::serverless::WindowStats&) override {
    ++windows_;
  }

  long windows() const { return windows_; }

 private:
  smiless::serverless::FunctionPlan plan_;
  long windows_ = 0;
};

}  // namespace perfbench
