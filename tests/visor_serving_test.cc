// Tests for the visor serving layer (DESIGN.md §8): warm-WFD pooling,
// pre-warm floor + idle-TTL eviction, concurrent watchdog dispatch,
// admission control (queue-with-budget, 429 + computed Retry-After),
// cooperative deadlines (504), and the destroy-on-failure rule. HTTP-level
// tests serve through a 1-shard AsVisorRouter, the plain watchdog.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "src/core/visor/visor.h"
#include "src/core/visor/visor_router.h"
#include "src/core/visor/wfd_pool.h"
#include "src/obs/metrics.h"

namespace alloy {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

WfdOptions SmallWfd() {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

uint64_t CounterValue(const std::string& name, const std::string& workflow) {
  return asobs::Registry::Global()
      .GetCounter(name, {{"workflow", workflow}})
      .value();
}

// The watchdog: a 1-shard router.
RouterOptions OneShard() {
  RouterOptions options;
  options.shards = 1;
  return options;
}

// A workflow's series as the 1-shard router's shard 0 labels them.
asobs::Labels Shard0(const std::string& workflow) {
  return {{"workflow", workflow}, {"alloy_visor_shard", "0"}};
}

uint64_t Shard0CounterValue(const std::string& name,
                            const std::string& workflow) {
  return asobs::Registry::Global().GetCounter(name, Shard0(workflow)).value();
}

// ------------------------------------------------------------- WfdPool

TEST(WfdPoolTest, LeaseParkEvictLifecycle) {
  WfdPool pool("pooltest", 1);
  const uint64_t hits0 = CounterValue("alloy_visor_pool_hits_total", "pooltest");
  const uint64_t misses0 =
      CounterValue("alloy_visor_pool_misses_total", "pooltest");
  const uint64_t evictions0 =
      CounterValue("alloy_visor_pool_evictions_total", "pooltest");

  // Empty pool: a lease misses.
  EXPECT_EQ(pool.TryAcquireWarm(), nullptr);
  EXPECT_EQ(CounterValue("alloy_visor_pool_misses_total", "pooltest"),
            misses0 + 1);

  auto first = Wfd::Create(SmallWfd());
  auto second = Wfd::Create(SmallWfd());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Parking beyond capacity evicts (destroys) the extra WFD.
  pool.Park(std::move(*first));
  EXPECT_EQ(pool.warm_count(), 1u);
  pool.Park(std::move(*second));
  EXPECT_EQ(pool.warm_count(), 1u);
  EXPECT_EQ(CounterValue("alloy_visor_pool_evictions_total", "pooltest"),
            evictions0 + 1);

  // Parked WFD comes back as a hit.
  EXPECT_NE(pool.TryAcquireWarm(), nullptr);
  EXPECT_EQ(CounterValue("alloy_visor_pool_hits_total", "pooltest"), hits0 + 1);
  EXPECT_EQ(pool.warm_count(), 0u);
}

TEST(WfdPoolTest, ZeroCapacityDisablesPooling) {
  WfdPool pool("pooloff", 0);
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  pool.Park(std::move(*wfd));
  EXPECT_EQ(pool.warm_count(), 0u);
  EXPECT_EQ(pool.TryAcquireWarm(), nullptr);
}

TEST(WfdPoolTest, IdleTtlEvictsParkedWfdsAndDropsResidentGauge) {
  WfdPoolOptions options;
  options.capacity = 2;
  options.idle_ttl_ms = 50;
  WfdPool pool("ttltest", std::move(options));
  const uint64_t evictions0 =
      CounterValue("alloy_visor_pool_evictions_total", "ttltest");

  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  // Touch heap pages so the parked WFD has a real resident footprint
  // (ResidentBytes is mincore-based: untouched reservations count zero).
  auto buffer = (*wfd)->libos().AllocBuffer("ttl", 256 * 1024, 16, 1);
  ASSERT_TRUE(buffer.ok());
  std::memset(*buffer, 0xab, 256 * 1024);
  pool.Park(std::move(*wfd));
  ASSERT_EQ(pool.warm_count(), 1u);
  EXPECT_GT(pool.resident_bytes(), 0u);
  asobs::Gauge& gauge = asobs::Registry::Global().GetGauge(
      "alloy_visor_pool_resident_bytes", {{"workflow", "ttltest"}});
  EXPECT_GT(gauge.value(), 0);

  // No traffic: after the TTL the evictor empties the pool and the
  // resident-bytes gauge drops to zero.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (pool.warm_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.warm_count(), 0u) << "idle pool must shrink to zero";
  EXPECT_EQ(pool.resident_bytes(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(CounterValue("alloy_visor_pool_evictions_total", "ttltest"),
            evictions0 + 1);
}

TEST(WfdPoolTest, WarmerFillsToMinWarmFloor) {
  WfdPoolOptions options;
  options.capacity = 2;
  options.min_warm = 2;
  options.factory = [] { return Wfd::Create(SmallWfd()); };
  WfdPool pool("floortest", std::move(options));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (pool.warm_count() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.warm_count(), 2u);
  EXPECT_GE(CounterValue("alloy_visor_prewarms_total", "floortest"), 2u);
}

// --------------------------------------------------------- warm serving

TEST(VisorServingTest, PoolReusesWfdAcrossInvocations) {
  FunctionRegistry::Global().Register(
      "serving.stateful", [](FunctionContext& ctx) -> asbase::Status {
        if (ctx.params()["mode"].as_string() == "write") {
          AS_RETURN_IF_ERROR(
              ctx.as().WriteWholeFile("/state.txt", Bytes("kept")));
          ctx.SetResult("wrote");
          return asbase::OkStatus();
        }
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/state.txt"));
        ctx.SetResult(std::string(data.begin(), data.end()));
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "warmwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.stateful", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  visor.RegisterWorkflow(spec, options);

  asbase::Json write_params;
  write_params.Set("mode", "write");
  auto cold = visor.Invoke("warmwf", write_params);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->warm_start);
  EXPECT_GT(cold->cold_start_nanos, 0);
  ASSERT_EQ(visor.WarmWfdCount("warmwf").value_or(0), 1u);

  // The second invocation leases the parked WFD: no wfd_create, no module
  // re-loads, and the filesystem written by invocation 1 is still there.
  asbase::Json read_params;
  read_params.Set("mode", "read");
  auto warm = visor.Invoke("warmwf", read_params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_start);
  EXPECT_EQ(warm->wfd_create_nanos, 0);
  EXPECT_EQ(warm->module_load_nanos, 0)
      << "warm start must not re-load modules the first run loaded";
  EXPECT_EQ(warm->run.result, "kept");
  EXPECT_EQ(visor.WarmWfdCount("warmwf").value_or(0), 1u);
}

TEST(VisorServingTest, ConcurrentWatchdogInvocationsRunInParallel) {
  FunctionRegistry::Global().Register(
      "serving.sleep100", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ctx.SetResult("slept");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "parwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.sleep100", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 4;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      ashttp::HttpRequest request;
      request.method = "POST";
      request.target = "/invoke/parwf";
      auto response =
          ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
      if (response.ok() && response->status == 200) {
        ++ok_count;
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ok_count.load(), 4);
  // Serial execution would take >= 400ms of sleeps alone.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            350)
      << "4 invocations at max_concurrency=4 must overlap";
}

TEST(VisorServingTest, SaturationRejectsWith429) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  FunctionRegistry::Global().Register(
      "serving.block", [&started, &release](FunctionContext& ctx)
                           -> asbase::Status {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "satwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.block", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 1;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  const uint64_t rejections0 =
      Shard0CounterValue("alloy_visor_rejections_total", "satwf");

  std::thread first([&] {
    ashttp::HttpRequest request;
    request.method = "POST";
    request.target = "/invoke/satwf";
    auto response =
        ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The workflow is at max_concurrency=1: the next request is rejected
  // immediately, not queued.
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/satwf";
  auto rejected = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429);
  EXPECT_EQ(rejected->headers.count("retry-after"), 1u);
  EXPECT_EQ(Shard0CounterValue("alloy_visor_rejections_total", "satwf"),
            rejections0 + 1);

  release = true;
  first.join();

  // With the slot free again the workflow is admissible.
  auto admitted = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, 200);
}

TEST(VisorServingTest, SlowStageTripsDeadline) {
  FunctionRegistry::Global().Register(
      "serving.slow", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ctx.SetResult("too late");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "slowwf";
  // Two stages so the deadline check after the slow stage's barrier stops
  // the second stage from ever running.
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.slow", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.slow", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.timeout_ms = 50;
  router.RegisterWorkflow(spec, options);

  const uint64_t timeouts0 =
      Shard0CounterValue("alloy_visor_timeouts_total", "slowwf");
  auto result = router.Invoke("slowwf", asbase::Json());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), asbase::ErrorCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(Shard0CounterValue("alloy_visor_timeouts_total", "slowwf"),
            timeouts0 + 1);

  // Over HTTP the deadline maps to 504 with the status visible in the body.
  ASSERT_TRUE(router.StartWatchdog(0).ok());
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/slowwf";
  auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 504);
  EXPECT_NE(response->body.find("DEADLINE_EXCEEDED"), std::string::npos);
}

TEST(VisorServingTest, FailedInvocationDestroysWfdInsteadOfRepooling) {
  FunctionRegistry::Global().Register(
      "serving.flaky", [](FunctionContext& ctx) -> asbase::Status {
        if (ctx.params()["fail"].as_bool(false)) {
          return asbase::Internal("induced failure");
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "flakywf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.flaky", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 2;
  visor.RegisterWorkflow(spec, options);

  asbase::Json fail_params;
  fail_params.Set("fail", true);
  EXPECT_FALSE(visor.Invoke("flakywf", fail_params).ok());
  EXPECT_EQ(visor.WarmWfdCount("flakywf").value_or(99), 0u)
      << "a failed invocation's WFD must be destroyed, never re-pooled";

  // The next invocation therefore cold-starts, then parks its clean WFD.
  auto recovered = visor.Invoke("flakywf", asbase::Json());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->warm_start);
  EXPECT_EQ(visor.WarmWfdCount("flakywf").value_or(0), 1u);
}

// ------------------------------------------- queue-with-budget admission

ashttp::HttpRequest InvokeRequest(const std::string& workflow,
                                  const std::string& body = "") {
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + workflow;
  request.body = body;
  return request;
}

TEST(VisorServingTest, EveryAdmittedInvocationIsRunning) {
  static std::atomic<int> running{0};
  static std::atomic<bool> release{false};
  running = 0;
  release = false;
  FunctionRegistry::Global().Register(
      "serving.gate12", [](FunctionContext& ctx) -> asbase::Status {
        ++running;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "admitrunwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.gate12", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 12;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());  // default ServingOptions

  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 12; ++i) {
    clients.emplace_back([&] {
      auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                       InvokeRequest("admitrunwf"));
      if (response.ok() && response->status == 200) {
        ++ok_count;
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (running.load() < 12 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int peak = running.load();
  const int64_t inflight = asobs::Registry::Global()
                               .GetGauge("alloy_visor_inflight",
                                         {{"alloy_visor_shard", "0"}})
                               .value();
  release = true;
  for (auto& client : clients) {
    client.join();
  }
  // Admission is the only execution bound: no admitted request waits in a
  // queue that no flight phase records.
  EXPECT_EQ(peak, 12) << "admitted invocations must all be running";
  EXPECT_EQ(inflight, 12);
  EXPECT_EQ(ok_count.load(), 12);
}

TEST(VisorServingTest, BurstQueuesThenServesWithinBudget) {
  FunctionRegistry::Global().Register(
      "serving.sleep30", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "queuewf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.sleep30", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 8;
  options.queueing_budget_ms = 10'000;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  const uint64_t rejections0 =
      Shard0CounterValue("alloy_visor_rejections_total", "queuewf");

  // 4 concurrent requests against max_concurrency=1: pre-queue behavior
  // rejected 3 of them; with a queue and a generous budget all 4 serve.
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                       InvokeRequest("queuewf"));
      if (response.ok() && response->status == 200) {
        ++ok_count;
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(ok_count.load(), 4);
  EXPECT_EQ(Shard0CounterValue("alloy_visor_rejections_total", "queuewf"),
            rejections0);
  // At least the non-first requests waited in the queue.
  const auto queue_wait = asobs::Registry::Global()
                              .GetHistogram("alloy_visor_queue_wait_nanos",
                                            Shard0("queuewf"))
                              .Snapshot();
  EXPECT_GE(queue_wait.count(), 3u);
}

TEST(VisorServingTest, OverBudgetRejectsWithComputedRetryAfter) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  FunctionRegistry::Global().Register(
      "serving.tunable",
      [&started, &release](FunctionContext& ctx) -> asbase::Status {
        const int64_t sleep_ms = ctx.params()["sleep_ms"].as_int(0);
        if (sleep_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        } else {
          started = true;
          while (!release) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "budgetwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.tunable", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 4;
  options.queueing_budget_ms = 250;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  // Seed the service-time EWMA with one ~1.5s run so the predictor has a
  // sample: predicted wait for the next queued arrival = 1 × 1.5s / 1.
  asbase::Json seed;
  seed.Set("sleep_ms", static_cast<int64_t>(1500));
  ASSERT_TRUE(router.Invoke("budgetwf", seed).ok());

  // Saturate the single slot with a request we control.
  std::thread blocker([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("budgetwf"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Default budget 250ms < predicted 1.5s: rejected, and Retry-After is
  // computed from the prediction (ceil(1.5s) = 2s), not the static
  // fallback of 1s.
  auto rejected = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                   InvokeRequest("budgetwf"));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429);
  ASSERT_EQ(rejected->headers.count("retry-after"), 1u);
  EXPECT_EQ(rejected->headers.at("retry-after"), "2");

  // A client with a bigger budget (x-queue-budget-ms header) queues
  // instead, and serves once the blocker releases the slot.
  std::thread patient([&] {
    asbase::Json params;
    params.Set("sleep_ms", static_cast<int64_t>(1));
    auto request = InvokeRequest("budgetwf", params.Dump());
    request.headers["x-queue-budget-ms"] = "30000";
    auto response =
        ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  // Give the patient request time to enter the queue, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release = true;
  blocker.join();
  patient.join();
}

TEST(VisorServingTest, RegisterWorkflowPrewarmsToFloorWithoutInvocation) {
  FunctionRegistry::Global().Register(
      "serving.noop", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("noop");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "prewarmwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.noop", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 2;
  options.min_warm = 2;
  visor.RegisterWorkflow(spec, options);

  // No invocation: the pool warmer alone fills the floor.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (visor.WarmWfdCount("prewarmwf").value_or(0) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(visor.WarmWfdCount("prewarmwf").value_or(0), 2u);
  EXPECT_GE(CounterValue("alloy_visor_prewarms_total", "prewarmwf"), 2u);

  // A pre-warmed WFD serves the first invocation warm — the spike pays no
  // cold start.
  auto first = visor.Invoke("prewarmwf", asbase::Json());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->warm_start);
  EXPECT_EQ(first->wfd_create_nanos, 0);
}

TEST(VisorServingTest, WarmerReplacementIsCloneCarryingLearnedModules) {
  FunctionRegistry::Global().Register(
      "serving.warmod", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/warm.txt", Bytes("w")));
        if (ctx.params()["fail"].as_bool(false)) {
          return asbase::Internal("deliberate failure");
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "warmodwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.warmod", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.min_warm = 1;
  visor.RegisterWorkflow(spec, options);

  auto wait_for_warm = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (visor.WarmWfdCount("warmodwf").value_or(0) < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return visor.WarmWfdCount("warmodwf").value_or(0);
  };
  ASSERT_EQ(wait_for_warm(), 1u);

  // The first run lands on a freshly booted pre-warmed WFD: it pays the
  // module loads itself, and its post-run reset captures the template.
  auto first = visor.Invoke("warmodwf", asbase::Json());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->warm_start);
  EXPECT_GT(first->module_load_nanos, 0);
  const uint64_t clones_before =
      CounterValue("alloy_visor_snapshot_clones_total", "warmodwf");

  // A failed invocation destroys its WFD, draining the pool; the warmer
  // boots a replacement through the one boot path — a clone of the
  // template.
  asbase::Json fail_params;
  fail_params.Set("fail", true);
  EXPECT_FALSE(visor.Invoke("warmodwf", fail_params).ok());
  ASSERT_EQ(wait_for_warm(), 1u);
  EXPECT_GT(CounterValue("alloy_visor_snapshot_clones_total", "warmodwf"),
            clones_before)
      << "the warmer's replacement must be clone-booted";

  // The replacement arrives hot: the same run now loads zero modules.
  auto hot = visor.Invoke("warmodwf", asbase::Json());
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  EXPECT_TRUE(hot->warm_start);
  EXPECT_EQ(hot->module_load_nanos, 0)
      << "a clone carries the template's loaded modules";
}

TEST(VisorServingTest, WarmerFullBootsWhenSnapshotsAreOff) {
  FunctionRegistry::Global().Register(
      "serving.offwarm", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/off.txt", Bytes("off")));
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/off.txt"));
        ctx.SetResult(std::string(data.begin(), data.end()));
        return asbase::OkStatus();
      });
  const std::string wf = "offwarmwf";
  const uint64_t fallbacks0 =
      CounterValue("alloy_visor_snapshot_fallback_boots_total", wf);
  ::setenv("ALLOY_SNAPSHOT", "off", 1);
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = wf;
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.offwarm", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.min_warm = 1;
  visor.RegisterWorkflow(spec, options);
  ::unsetenv("ALLOY_SNAPSHOT");

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (visor.WarmWfdCount(wf).value_or(0) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(visor.WarmWfdCount(wf).value_or(0), 1u);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_fallback_boots_total", wf),
            fallbacks0 + 1)
      << "the warmer's boot is a full boot when capture is off";

  // The full-booted WFD loads its modules on first use and serves.
  auto result = visor.Invoke(wf, asbase::Json());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->warm_start);
  EXPECT_FALSE(result->clone_start);
  EXPECT_EQ(result->run.result, "off");
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_creates_total", wf), 0u);
}

// --------------------------------------------- cross-workflow queue fairness

TEST(VisorServingTest, AdmissionRoundRobinPreventsCrossWorkflowStarvation) {
  FunctionRegistry::Global().Register(
      "serving.sleep20", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  auto register_workflow = [&](const std::string& name) {
    WorkflowSpec spec;
    spec.name = name;
    spec.stages.push_back(StageSpec{{FunctionSpec{"serving.sleep20", 1}}});
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 1;
    options.max_concurrency = 1;
    options.queue_capacity = 8;
    options.queueing_budget_ms = 60'000;
    router.RegisterWorkflow(spec, options);
  };
  register_workflow("heavywf");
  register_workflow("lightwf");
  AsVisor::ServingOptions serving;
  serving.max_inflight = 1;  // one global slot: the workflows must share it
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());

  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  std::vector<std::thread> clients;
  auto fire = [&](const std::string& name) {
    clients.emplace_back([&, name] {
      auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                       InvokeRequest(name));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200) << response->body;
      std::lock_guard<std::mutex> lock(order_mutex);
      completion_order.push_back(name);
    });
  };
  // A heavy backlog first, then one light request: if the global slot went
  // to whichever waiter raced first, the light workflow could drain behind
  // the entire heavy queue. Round-robin grants interleave it.
  for (int i = 0; i < 4; ++i) {
    fire("heavywf");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  fire("lightwf");
  for (auto& client : clients) {
    client.join();
  }
  ASSERT_EQ(completion_order.size(), 5u);
  const auto light_at = std::find(completion_order.begin(),
                                  completion_order.end(), "lightwf");
  ASSERT_NE(light_at, completion_order.end());
  EXPECT_LT(light_at - completion_order.begin(), 4)
      << "the light workflow must not wait out the whole heavy backlog";
}

TEST(VisorServingTest, WeightedSharesGrantSlotsProportionally) {
  static std::atomic<bool> gate_started{false};
  static std::atomic<bool> gate_release{false};
  gate_started = false;
  gate_release = false;
  FunctionRegistry::Global().Register(
      "serving.weightgate", [](FunctionContext& ctx) -> asbase::Status {
        gate_started = true;
        while (!gate_release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  std::mutex order_mutex;
  std::vector<std::string> grant_order;
  FunctionRegistry::Global().Register(
      "serving.recordwf", [&](FunctionContext& ctx) -> asbase::Status {
        {
          std::lock_guard<std::mutex> lock(order_mutex);
          grant_order.push_back(ctx.params()["who"].as_string());
        }
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  auto register_workflow = [&](const std::string& name,
                               const std::string& function, double weight) {
    WorkflowSpec spec;
    spec.name = name;
    spec.stages.push_back(StageSpec{{FunctionSpec{function, 1}}});
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 1;
    options.max_concurrency = 12;
    options.queue_capacity = 16;
    options.queueing_budget_ms = 60'000;
    options.weight = weight;
    router.RegisterWorkflow(spec, options);
  };
  register_workflow("wgate", "serving.weightgate", 1.0);
  register_workflow("a-prio", "serving.recordwf", 3.0);
  register_workflow("b-std", "serving.recordwf", 1.0);
  AsVisor::ServingOptions serving;
  serving.max_inflight = 1;  // one global slot, granted strictly one by one
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());

  // Occupy the single slot, then pile up 9 weight-3 and 3 weight-1 waiters
  // so every later grant is contested.
  std::thread gate_holder([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("wgate"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  while (!gate_started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  asobs::Gauge& a_queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", Shard0("a-prio"));
  asobs::Gauge& b_queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", Shard0("b-std"));
  std::vector<std::thread> clients;
  auto fire = [&](const std::string& name) {
    clients.emplace_back([&, name] {
      asbase::Json params;
      params.Set("who", name);
      auto response =
          ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                           InvokeRequest(name, params.Dump()));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200) << response->body;
    });
  };
  for (int i = 0; i < 9; ++i) {
    fire("a-prio");
  }
  for (int i = 0; i < 3; ++i) {
    fire("b-std");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((a_queued.value() < 9 || b_queued.value() < 3) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(a_queued.value(), 9);
  ASSERT_EQ(b_queued.value(), 3);

  gate_release = true;
  gate_holder.join();
  for (auto& client : clients) {
    client.join();
  }

  // Deficit-round-robin at 3:1 weights grants in A,A,A,B cycles while both
  // queues are non-empty. Check the ratio window by window rather than the
  // exact sequence so the assertion is robust to the final uncontested tail.
  ASSERT_EQ(grant_order.size(), 12u);
  for (int window = 0; window < 3; ++window) {
    int a_grants = 0;
    for (int i = window * 4; i < (window + 1) * 4; ++i) {
      if (grant_order[i] == "a-prio") {
        ++a_grants;
      }
    }
    EXPECT_EQ(a_grants, 3) << "window " << window
                           << " must grant the weight-3 workflow 3 of 4 slots";
  }
}

// ------------------------- flight recorder / tail retention / SLO (§11)

TEST(VisorObservabilityTest, TimeoutBurstRetainsTailTracesAndFlightRecords) {
  FunctionRegistry::Global().Register(
      "serving.tunablesleep", [](FunctionContext& ctx) -> asbase::Status {
        const int64_t sleep_ms = ctx.params()["sleep_ms"].as_int(0);
        if (sleep_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "tailwf";
  // Two stages so the cooperative deadline check after the first stage's
  // barrier converts a slow run into kDeadlineExceeded.
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.tunablesleep", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.tunablesleep", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.timeout_ms = 50;
  router.RegisterWorkflow(spec, options);

  // Tail-based retention: only failures/timeouts (or >10s runs) keep their
  // span tree. The fast successes below must NOT be retained.
  AsVisor::ServingOptions serving;
  serving.trace_threshold_ms = 10'000;
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());
  EXPECT_EQ(router.shard(0).trace_threshold_ms(), 10'000);

  asobs::Counter& retained = asobs::Registry::Global().GetCounter(
      "alloy_visor_traces_retained_total", {{"alloy_visor_shard", "0"}});
  const uint64_t retained0 = retained.value();

  // Three fast successes...
  asbase::Json fast;
  fast.Set("sleep_ms", static_cast<int64_t>(0));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(router.Invoke("tailwf", fast).ok());
  }
  // ...then a burst of three timeouts.
  asbase::Json slow;
  slow.Set("sleep_ms", static_cast<int64_t>(100));
  for (int i = 0; i < 3; ++i) {
    auto result = router.Invoke("tailwf", slow);
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.status().code(), asbase::ErrorCode::kDeadlineExceeded);
  }

  // Only the offenders were retained for /trace.
  EXPECT_EQ(retained.value(), retained0 + 3)
      << "fast successes under the threshold must not be retained";

  // The flight ring has everything — and the timeout records carry a phase
  // breakdown (they reached the exec phase before the deadline fired).
  ashttp::HttpRequest request;
  request.method = "GET";
  request.target = "/debug/flight?workflow=tailwf";
  auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto doc = asbase::Json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  ASSERT_EQ((*doc)["count"].as_int(), 6);
  int ok_records = 0;
  int timeout_records = 0;
  for (const asbase::Json& record : (*doc)["records"].array()) {
    EXPECT_EQ(record["workflow"].as_string(), "tailwf");
    if (record["outcome"].as_string() == "ok") {
      ++ok_records;
    } else if (record["outcome"].as_string() == "timeout") {
      ++timeout_records;
      EXPECT_GT(record["phases"]["exec_nanos"].as_int(), 0)
          << "a timeout record must attribute where the time went";
      EXPECT_GE(record["total_nanos"].as_int(), 50 * 1'000'000);
    }
  }
  EXPECT_EQ(ok_records, 3);
  EXPECT_EQ(timeout_records, 3);

  // Phase attribution across the same records: exec owns this tail (the
  // timeouts burned their lives sleeping inside the orchestrator run).
  request.target = "/debug/latency?workflow=tailwf";
  auto latency = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(latency.ok());
  ASSERT_EQ(latency->status, 200);
  auto attribution = asbase::Json::Parse(latency->body);
  ASSERT_TRUE(attribution.ok()) << latency->body;
  EXPECT_EQ((*attribution)["count"].as_int(), 6);
  EXPECT_EQ((*attribution)["tail_owner"].as_string(), "exec")
      << latency->body;
}

TEST(VisorObservabilityTest, HealthzAlwaysOkReadyzReflectsDrain) {
  AsVisorRouter router(OneShard());
  ASSERT_TRUE(router.StartWatchdog(0).ok());
  ashttp::HttpRequest request;
  request.method = "GET";

  request.target = "/healthz";
  auto healthz = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);
  EXPECT_EQ(healthz->body, "ok");

  request.target = "/readyz";
  auto ready = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);
  EXPECT_TRUE(asbase::Json::Parse(ready->body).value()["ready"].as_bool());

  router.shard(0).BeginDrain();
  EXPECT_TRUE(router.shard(0).draining());
  auto drained = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->status, 503);
  EXPECT_FALSE(asbase::Json::Parse(drained->body).value()["ready"].as_bool());

  // Liveness is unaffected by the drain.
  request.target = "/healthz";
  auto alive = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive->status, 200);
}

TEST(VisorObservabilityTest, SloBurnTriggerWritesBlackBox) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "alloy_blackbox_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("ALLOY_BLACKBOX_DIR", dir.c_str(), 1);

  FunctionRegistry::Global().Register(
      "serving.alwaysfail", [](FunctionContext&) -> asbase::Status {
        return asbase::Internal("induced failure");
      });
  {
    AsVisor visor;  // constructed AFTER the env var is set
    WorkflowSpec spec;
    spec.name = "slowf";
    spec.stages.push_back(StageSpec{{FunctionSpec{"serving.alwaysfail", 1}}});
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 0;
    options.slo_objective = 0.99;  // 1% budget: one failure burns hot
    visor.RegisterWorkflow(spec, options);

    EXPECT_FALSE(visor.Invoke("slowf", asbase::Json()).ok());

    // The failure pushed the fast burn over its threshold (bad fraction 1.0
    // against a 1% budget = burn 100 >= 14): gauges move, black box drops.
    asobs::Gauge& fast_burn = asobs::Registry::Global().GetGauge(
        "alloy_slo_burn_rate",
        {{"workflow", "slowf"}, {"window", "fast"}});
    EXPECT_GE(fast_burn.value(), 14'000)
        << "burn gauges are milli-scaled (burn 14.0 -> 14000)";
  }
  ::unsetenv("ALLOY_BLACKBOX_DIR");

  std::vector<fs::path> boxes;
  for (const auto& file : fs::directory_iterator(dir)) {
    boxes.push_back(file.path());
  }
  ASSERT_EQ(boxes.size(), 1u) << "exactly one black box per incident";
  std::ifstream in(boxes[0]);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto doc = asbase::Json::Parse(body);
  ASSERT_TRUE(doc.ok()) << body;
  EXPECT_EQ((*doc)["reason"].as_string(), "fast_burn");
  EXPECT_EQ((*doc)["workflow"].as_string(), "slowf");
  EXPECT_GE((*doc)["fast_burn_milli"].as_int(), 14'000);
  // The snapshot embeds the flight ring (the failure's record is in there)
  // and the per-workflow queue/pool state.
  EXPECT_GE((*doc)["flight"]["count"].as_int(), 1);
  ASSERT_TRUE((*doc)["queues"].is_array());
  EXPECT_EQ((*doc)["queues"].array()[0]["workflow"].as_string(), "slowf");
  fs::remove_all(dir);
}

TEST(VisorObservabilityTest, RejectionLeavesFlightRecord) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  FunctionRegistry::Global().Register(
      "serving.obsblock", [&started, &release](FunctionContext& ctx)
                              -> asbase::Status {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  AsVisorRouter router(OneShard());
  WorkflowSpec spec;
  spec.name = "rejwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.obsblock", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 1;
  router.RegisterWorkflow(spec, options);
  ASSERT_TRUE(router.StartWatchdog(0).ok());

  std::thread first([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("rejwf"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto rejected = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                   InvokeRequest("rejwf"));
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->status, 429);
  release = true;
  first.join();

  // The 429 deposited a "rejected" record — a rejection storm must be
  // reconstructable from the black box like any other incident.
  const std::vector<asobs::FlightRecord> records =
      router.shard(0).flight().Snapshot("rejwf");
  bool found = false;
  for (const asobs::FlightRecord& record : records) {
    if (record.outcome == asobs::FlightOutcome::kRejected) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "rejections must appear in the flight ring";
}

TEST(VisorObservabilityTest, ServingOptionsOverrideTraceKnobs) {
  AsVisor visor;
  // Construction defaults: ServingOptions{}.
  EXPECT_EQ(visor.trace_ring_depth(), AsVisor::kTraceRing);
  EXPECT_EQ(visor.trace_threshold_ms(), 0);
  AsVisor::ServingOptions serving;
  serving.trace_ring = 3;
  serving.trace_threshold_ms = 250;
  ASSERT_TRUE(visor.StartServing(serving).ok());
  EXPECT_EQ(visor.trace_ring_depth(), 3u);
  EXPECT_EQ(visor.trace_threshold_ms(), 250);
  visor.StopServing();
}

}  // namespace
}  // namespace alloy
