// Tests for multi-visor sharding (DESIGN.md §10): consistent-hash routing,
// pin overrides + migration, shard-count redistribution, the shared
// watchdog server, budget splitting, and multi-shard drain on stop.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/visor/visor_router.h"

namespace alloy {
namespace {

WfdOptions SmallWfd() {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

ashttp::HttpRequest InvokeRequest(const std::string& workflow,
                                  const std::string& body = "") {
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + workflow;
  request.body = body;
  return request;
}

void RegisterEcho() {
  static bool done = [] {
    FunctionRegistry::Global().Register(
        "router.echo", [](FunctionContext& ctx) -> asbase::Status {
          ctx.SetResult("echoed");
          return asbase::OkStatus();
        });
    return true;
  }();
  (void)done;
}

WorkflowSpec EchoSpec(const std::string& name) {
  RegisterEcho();
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{"router.echo", 1}}});
  return spec;
}

// The shard that actually holds `name`, by asking every shard. Returns -1
// when unregistered, -2 when registered on more than one shard.
int OwningShard(AsVisorRouter& router, const std::string& name) {
  int owner = -1;
  for (size_t i = 0; i < router.shard_count(); ++i) {
    const auto names = router.shard(i).WorkflowNames();
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      if (owner >= 0) {
        return -2;
      }
      owner = static_cast<int>(i);
    }
  }
  return owner;
}

TEST(VisorRouterTest, SameShardAcrossReRegistration) {
  RouterOptions router_options;
  router_options.shards = 4;
  AsVisorRouter router(router_options);
  ASSERT_EQ(router.shard_count(), 4u);

  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  router.RegisterWorkflow(EchoSpec("stablewf"), options);
  const size_t first = router.ShardOf("stablewf");
  EXPECT_EQ(first, router.HashShard("stablewf"));
  EXPECT_EQ(OwningShard(router, "stablewf"), static_cast<int>(first));

  // Re-registration (changed options, no pin) stays on the hash shard.
  options.max_concurrency = 2;
  router.RegisterWorkflow(EchoSpec("stablewf"), options);
  EXPECT_EQ(router.ShardOf("stablewf"), first);
  EXPECT_EQ(OwningShard(router, "stablewf"), static_cast<int>(first));
}

TEST(VisorRouterTest, PinOverrideAndMigrationWithoutDoubleRegistration) {
  RouterOptions router_options;
  router_options.shards = 4;
  AsVisorRouter router(router_options);

  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  options.pin_shard = 2;
  router.RegisterWorkflow(EchoSpec("pinnedwf"), options);
  EXPECT_EQ(router.ShardOf("pinnedwf"), 2u);
  EXPECT_EQ(OwningShard(router, "pinnedwf"), 2);

  auto invoked = router.Invoke("pinnedwf", asbase::Json());
  ASSERT_TRUE(invoked.ok()) << invoked.status().ToString();
  EXPECT_EQ(invoked->run.result, "echoed");

  // Re-pin: the workflow moves and the old shard forgets it — never two
  // registrations visible at once.
  options.pin_shard = 1;
  router.RegisterWorkflow(EchoSpec("pinnedwf"), options);
  EXPECT_EQ(router.ShardOf("pinnedwf"), 1u);
  EXPECT_EQ(OwningShard(router, "pinnedwf"), 1);
  invoked = router.Invoke("pinnedwf", asbase::Json());
  ASSERT_TRUE(invoked.ok()) << invoked.status().ToString();

  // Dropping the pin sends it back to the hash placement.
  options.pin_shard = -1;
  router.RegisterWorkflow(EchoSpec("pinnedwf"), options);
  EXPECT_EQ(router.ShardOf("pinnedwf"), router.HashShard("pinnedwf"));
  EXPECT_EQ(OwningShard(router, "pinnedwf"),
            static_cast<int>(router.HashShard("pinnedwf")));

  // Pins wrap modulo shard count.
  options.pin_shard = 7;
  router.RegisterWorkflow(EchoSpec("pinnedwf"), options);
  EXPECT_EQ(router.ShardOf("pinnedwf"), 3u);
}

TEST(VisorRouterTest, ShardCountChangeRedistributesAFraction) {
  RouterOptions four_options;
  four_options.shards = 4;
  AsVisorRouter four(four_options);
  RouterOptions five_options;
  five_options.shards = 5;
  AsVisorRouter five(five_options);

  // Consistent hashing: growing 4 -> 5 shards should move roughly 1/5 of
  // the keys, far below the ~4/5 a modulo hash would reshuffle.
  int moved = 0;
  const int kNames = 200;
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "wf-" + std::to_string(i);
    if (four.HashShard(name) != five.HashShard(name)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0) << "a bigger ring must claim some keys";
  EXPECT_LT(moved, kNames / 2)
      << "consistent hashing must not reshuffle most keys";

  // Registering every name on the 5-shard router lands each on exactly one
  // shard, matching its hash placement.
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  size_t total = 0;
  for (int i = 0; i < kNames; ++i) {
    five.RegisterWorkflow(EchoSpec("wf-" + std::to_string(i)), options);
  }
  std::set<std::string> seen;
  for (size_t s = 0; s < five.shard_count(); ++s) {
    for (const std::string& name : five.shard(s).WorkflowNames()) {
      EXPECT_TRUE(seen.insert(name).second)
          << name << " registered on more than one shard";
      EXPECT_EQ(five.ShardOf(name), s);
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kNames));
}

TEST(VisorRouterTest, SharedServerRoutesMixedLoadWithShardLabels) {
  RouterOptions router_options;
  router_options.shards = 4;
  AsVisorRouter router(router_options);
  for (int i = 0; i < 4; ++i) {
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 1;
    options.pin_shard = i;  // spread the mixed load across all shards
    router.RegisterWorkflow(EchoSpec("mixed-" + std::to_string(i)), options);
  }
  AsVisor::ServingOptions serving;
  serving.max_inflight = 8;
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());
  // Each shard got an even slice of the global budget.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(router.shard(s).max_inflight(), 2u);
  }

  ashttp::HttpRequest health;
  health.method = "GET";
  health.target = "/health";
  auto health_response =
      ashttp::HttpCall("127.0.0.1", router.watchdog_port(), health);
  ASSERT_TRUE(health_response.ok());
  EXPECT_EQ(health_response->body, "ok");

  for (int i = 0; i < 4; ++i) {
    auto response =
        ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                         InvokeRequest("mixed-" + std::to_string(i)));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  }

  // /metrics aggregates all shards; per-shard series carry the label.
  ashttp::HttpRequest metrics;
  metrics.method = "GET";
  metrics.target = "/metrics";
  auto metrics_response =
      ashttp::HttpCall("127.0.0.1", router.watchdog_port(), metrics);
  ASSERT_TRUE(metrics_response.ok());
  for (int i = 0; i < 4; ++i) {
    const std::string label =
        "alloy_visor_shard=\"" + std::to_string(i) + "\"";
    EXPECT_NE(metrics_response->body.find(label), std::string::npos)
        << "metrics must carry " << label;
  }

  // /trace routes by the workflow query param.
  ashttp::HttpRequest trace;
  trace.method = "GET";
  trace.target = "/trace?workflow=mixed-2";
  auto trace_response =
      ashttp::HttpCall("127.0.0.1", router.watchdog_port(), trace);
  ASSERT_TRUE(trace_response.ok());
  EXPECT_EQ(trace_response->status, 200) << trace_response->body;

  router.StopWatchdog();
}

TEST(VisorRouterTest, StartStopStartCycle) {
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  router.RegisterWorkflow(EchoSpec("cyclewf"), options);

  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(router.StartWatchdog(0).ok()) << "cycle " << cycle;
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("cyclewf"));
    ASSERT_TRUE(response.ok()) << "cycle " << cycle;
    EXPECT_EQ(response->status, 200)
        << "cycle " << cycle << ": " << response->body;
    router.StopWatchdog();
    EXPECT_EQ(router.watchdog_port(), 0u);
  }
  // A second stop is a no-op, not a crash.
  router.StopWatchdog();
}

TEST(VisorRouterTest, StopWatchdogDrainsQueuedAdmissionsWith503) {
  static std::atomic<bool> started{false};
  static std::atomic<bool> release{false};
  started = false;
  release = false;
  FunctionRegistry::Global().Register(
      "router.gate", [](FunctionContext& ctx) -> asbase::Status {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  WorkflowSpec spec;
  spec.name = "gatewf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"router.gate", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  options.max_concurrency = 1;
  options.queue_capacity = 4;
  options.queueing_budget_ms = 60'000;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  // First request holds the workflow's only slot...
  std::thread holder([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("gatewf"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...the second queues behind it.
  std::atomic<int> queued_status{0};
  std::thread queued([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("gatewf"));
    ASSERT_TRUE(response.ok());
    queued_status = response->status;
  });
  const size_t owner = router.ShardOf("gatewf");
  asobs::Gauge& queued_gauge = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", {{"workflow", "gatewf"},
                             {"alloy_visor_shard", std::to_string(owner)}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (queued_gauge.value() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queued_gauge.value(), 1) << "second request must be queued";

  // Stop while one invocation runs and one waits: the waiter must unwind
  // with 503, the runner must be allowed to finish (release it so Stop's
  // connection join can complete).
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release = true;
  });
  router.StopWatchdog();
  holder.join();
  queued.join();
  releaser.join();
  EXPECT_EQ(queued_status.load(), 503)
      << "queued admission must drain with 503 on stop";
}

// ---------------------- shared-server observability endpoints (§11)

TEST(VisorRouterTest, ReadyzAggregatesShardDrainState) {
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  ashttp::HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  auto healthz = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);

  request.target = "/readyz";
  auto ready = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);

  // One shard draining pulls the whole process out of rotation; the body
  // names the culprit.
  router.shard(1).BeginDrain();
  auto drained = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->status, 503);
  auto doc = asbase::Json::Parse(drained->body);
  ASSERT_TRUE(doc.ok()) << drained->body;
  EXPECT_FALSE((*doc)["ready"].as_bool(true));
  ASSERT_EQ((*doc)["shards"].array().size(), 2u);
  EXPECT_FALSE((*doc)["shards"].array()[0]["draining"].as_bool(true));
  EXPECT_TRUE((*doc)["shards"].array()[1]["draining"].as_bool(false));
}

TEST(VisorRouterTest, DebugFlightMergesAcrossShards) {
  RouterOptions router_options;
  router_options.shards = 4;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  // Pin two workflows to different shards so the merged report provably
  // spans more than one flight ring.
  options.pin_shard = 0;
  router.RegisterWorkflow(EchoSpec("flight-a"), options);
  options.pin_shard = 2;
  router.RegisterWorkflow(EchoSpec("flight-b"), options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  ASSERT_TRUE(router.Invoke("flight-a", asbase::Json()).ok());
  ASSERT_TRUE(router.Invoke("flight-b", asbase::Json()).ok());

  // No workflow param: the router merges every shard's ring.
  ashttp::HttpRequest request;
  request.method = "GET";
  request.target = "/debug/flight";
  auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto doc = asbase::Json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  EXPECT_GE((*doc)["count"].as_int(), 2);
  std::set<std::string> workflows;
  std::set<int64_t> shards;
  for (const asbase::Json& record : (*doc)["records"].array()) {
    workflows.insert(record["workflow"].as_string());
    shards.insert(record["shard"].as_int());
  }
  EXPECT_TRUE(workflows.count("flight-a")) << response->body;
  EXPECT_TRUE(workflows.count("flight-b")) << response->body;
  EXPECT_GE(shards.size(), 2u)
      << "merged report must span more than one shard's ring";

  // With a workflow param the owning shard answers alone.
  request.target = "/debug/flight?workflow=flight-b";
  auto scoped = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(scoped.ok());
  auto scoped_doc = asbase::Json::Parse(scoped->body);
  ASSERT_TRUE(scoped_doc.ok());
  for (const asbase::Json& record : (*scoped_doc)["records"].array()) {
    EXPECT_EQ(record["workflow"].as_string(), "flight-b");
  }

  // Merged latency attribution renders across shards too.
  request.target = "/debug/latency";
  auto latency = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(latency.ok());
  ASSERT_EQ(latency->status, 200);
  auto latency_doc = asbase::Json::Parse(latency->body);
  ASSERT_TRUE(latency_doc.ok());
  EXPECT_GE((*latency_doc)["count"].as_int(), 2);
  EXPECT_FALSE((*latency_doc)["tail_owner"].as_string().empty());
}


TEST(VisorRouterTest, QueueBudgetHeaderIsValidatedAndClamped) {
  static std::atomic<bool> started{false};
  static std::atomic<bool> release{false};
  started = false;
  release = true;
  FunctionRegistry::Global().Register(
      "router.budgetgate", [](FunctionContext& ctx) -> asbase::Status {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  RouterOptions router_options;
  router_options.shards = 1;
  AsVisorRouter router(router_options);
  WorkflowSpec spec;
  spec.name = "budgethdr";
  spec.stages.push_back(StageSpec{{FunctionSpec{"router.budgetgate", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 1;
  options.queue_capacity = 4;
  // Zero default budget: only a request whose own header grants a budget
  // may queue; the rest are turned away at once.
  options.queueing_budget_ms = 0;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());
  // One completed run seeds the service-time EWMA, so a queued arrival has
  // a predicted wait > 0 to compare against its budget.
  ASSERT_TRUE(router.Invoke("budgethdr", asbase::Json()).ok());

  release = false;
  started = false;
  std::thread holder([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("budgethdr"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Malformed budgets are the client's error, not a zero budget.
  for (const char* malformed : {"banana", "-5", ""}) {
    auto request = InvokeRequest("budgethdr");
    request.headers["x-queue-budget-ms"] = malformed;
    auto response =
        ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << "'" << malformed << "'";
  }

  // INT64_MAX ms clamps to the largest budget: it queues behind the holder
  // instead of overflowing into a negative budget and a 429.
  std::atomic<int> patient_status{0};
  std::thread patient([&] {
    auto request = InvokeRequest("budgethdr");
    request.headers["x-queue-budget-ms"] = "9223372036854775807";
    auto response =
        ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
    patient_status = response.ok() ? response->status : -1;
  });
  asobs::Gauge& queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued",
      {{"workflow", "budgethdr"}, {"alloy_visor_shard", "0"}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (queued.value() < 1 && patient_status.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queued.value(), 1) << "status " << patient_status.load();
  release = true;
  holder.join();
  patient.join();
  EXPECT_EQ(patient_status.load(), 200);

  // The flight cursor goes through the same validation.
  ashttp::HttpRequest flight;
  flight.method = "GET";
  flight.target = "/debug/flight?since=banana";
  auto bad_cursor =
      ashttp::HttpCall("127.0.0.1", router.watchdog_port(), flight);
  ASSERT_TRUE(bad_cursor.ok());
  EXPECT_EQ(bad_cursor->status, 400);
  flight.target = "/debug/flight?workflow=budgethdr&since=1";
  auto good_cursor =
      ashttp::HttpCall("127.0.0.1", router.watchdog_port(), flight);
  ASSERT_TRUE(good_cursor.ok());
  EXPECT_EQ(good_cursor->status, 200);
  router.StopWatchdog();
}

}  // namespace
}  // namespace alloy
