// Multi-visor sharding benchmark (DESIGN.md §10):
//
//   1. shard scaling — closed-loop throughput + p99 of a mixed 4-workflow
//      load against AsVisorRouter at 1/2/4/8 shards. Clients call
//      router.Dispatch() directly (no HTTP socket), so the measured path is
//      exactly what sharding changes: the admission herd (one cv per shard
//      vs one global cv); an admitted request runs on its client's thread.
//      The workload is sleep-bound (~2ms) so admission-path CPU, not the
//      work itself, is the bottleneck — the regime the paper's multi-tenant
//      visor lives in.
//   2. warm p50 parity — one shard must behave like the pre-sharding
//      AsVisor: the bench_serving §1 warm config (pool_size=2, IO workflow)
//      re-run through a 1-shard router, p50 emitted for comparison against
//      BENCH_serving.json.
//
//   3. zipf skew (`--zipf`, DESIGN.md §12) — 8 workflows pinned two-per-shard
//      on a 4-shard mesh, each request drawing its workflow from a Zipf(1.1)
//      distribution, so one shard carries ~47% of the demand while holding
//      25% of the even in-flight budget. Three runs: uniform draw (the fair
//      baseline), zipf with the rebalancer off (the hotspot queues), and
//      zipf with the rebalancer's demand-weighted re-slicing on. The
//      rebalancer should pull the hot shard's p99 back toward the uniform
//      baseline.
//
// `--quick` shrinks to a smoke test (ctest label `serving`). Emits
// BENCH_sharding.json with rps_by_shards / p99_by_shards / speedup_4_vs_1 /
// one_shard_warm_p50_nanos (+ zipf_* with --zipf).

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/visor/visor_router.h"

namespace asbench {
namespace {

using alloy::AsVisor;
using alloy::AsVisorRouter;
using alloy::FunctionContext;
using alloy::FunctionRegistry;
using alloy::FunctionSpec;
using alloy::RouterOptions;
using alloy::StageSpec;
using alloy::WorkflowSpec;

constexpr int kWorkflows = 4;

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

alloy::WfdOptions BenchWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

void RegisterFunctions() {
  // Sleep-bound stage: admitted invocations overlap freely, so throughput
  // is limited by how fast admission can grant slots — the broadcast-herd
  // cost sharding exists to divide.
  FunctionRegistry::Global().Register(
      "bench.shard-sleep", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  // Longer stage for the zipf section: at ~20ms the shard's in-flight slice
  // (capacity = slice / service time), not admission-path CPU, bounds each
  // shard's throughput — the regime demand-weighted re-slicing targets.
  FunctionRegistry::Global().Register(
      "bench.skew-sleep", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  // Same IO body as bench_serving's "bench.serve-io": the parity section
  // must measure the identical workload.
  FunctionRegistry::Global().Register(
      "bench.shard-io", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile(
            "/serve.bin", Bytes(std::string(4096, 'x'))));
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/serve.bin"));
        ctx.SetResult(std::to_string(data.size()));
        return asbase::OkStatus();
      });
}

WorkflowSpec OneStage(const std::string& name, const std::string& fn) {
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{fn, 1}}});
  return spec;
}

ashttp::HttpRequest InvokeRequest(const std::string& workflow) {
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + workflow;
  return request;
}

struct ShardRun {
  double rps = 0;
  int64_t p99_nanos = 0;
  int64_t completed = 0;
  int64_t errors = 0;
};

// One closed-loop run of the mixed load against an N-shard router.
ShardRun RunMixedLoad(size_t shards, int clients, int requests_per_client) {
  ShardRun run;
  RouterOptions router_options;
  router_options.shards = shards;
  AsVisorRouter router(router_options);
  for (int i = 0; i < kWorkflows; ++i) {
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 8;
    options.max_concurrency = 8;
    options.queue_capacity = 256;       // deep queue: block, don't reject
    options.queueing_budget_ms = 60'000;
    options.pin_shard = i;  // spread the four workflows round-robin
    router.RegisterWorkflow(
        OneStage("mix-" + std::to_string(i), "bench.shard-sleep"), options);
  }
  AsVisor::ServingOptions serving;
  serving.max_inflight = 32;
  if (!router.StartWatchdog(0, serving).ok()) {
    std::fprintf(stderr, "watchdog start failed at %zu shards\n", shards);
    return run;
  }

  // Warm every pool outside the measured window (direct Invoke is not
  // admission-gated) so the closed loop measures steady state.
  for (int i = 0; i < kWorkflows; ++i) {
    for (int j = 0; j < 2; ++j) {
      (void)router.Invoke("mix-" + std::to_string(i), asbase::Json());
    }
  }

  asbase::Histogram latency;
  std::mutex latency_mutex;
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const int64_t start = asbase::MonoNanos();
  for (int c = 0; c < clients; ++c) {
    const std::string workflow = "mix-" + std::to_string(c % kWorkflows);
    threads.emplace_back([&, workflow] {
      const ashttp::HttpRequest request = InvokeRequest(workflow);
      for (int i = 0; i < requests_per_client; ++i) {
        const int64_t t0 = asbase::MonoNanos();
        const ashttp::HttpResponse response = router.Dispatch(request);
        if (response.status == 200) {
          std::lock_guard<std::mutex> lock(latency_mutex);
          latency.Record(asbase::MonoNanos() - t0);
        } else {
          ++errors;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double seconds = static_cast<double>(asbase::MonoNanos() - start) / 1e9;
  router.StopWatchdog();

  run.completed = latency.count();
  run.errors = errors.load();
  run.rps = seconds > 0 ? static_cast<double>(run.completed) / seconds : 0;
  run.p99_nanos = latency.Percentile(0.99);
  return run;
}

// Zipf(s) over `n` workflows as a cumulative distribution; a client draws
// one uniform double per request and walks the table.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n), 0);
  double sum = 0;
  for (int k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<size_t>(k)] = sum;
  }
  for (double& value : cdf) {
    value /= sum;
  }
  return cdf;
}

// One closed-loop run of the skewed load against a 4-shard mesh. `zipf`
// false = uniform workflow draw (fair baseline); `rebalance_on` wires the
// ShardRebalancer into the watchdog so demand-weighted re-slicing chases the
// hotspot. The first `warmup_per_client` requests per client are driven but
// not recorded, giving the control loop (cooldown 50ms) time to converge
// before the measured window opens — the same grace both baseline runs get.
ShardRun RunSkewedLoad(bool zipf, bool rebalance_on, int clients,
                       int warmup_per_client, int measured_per_client,
                       std::vector<size_t>* final_slices) {
  constexpr int kSkewWorkflows = 8;
  constexpr size_t kSkewShards = 4;
  ShardRun run;
  RouterOptions router_options;
  router_options.shards = kSkewShards;
  if (rebalance_on) {
    router_options.rebalancer.enabled = true;
    router_options.rebalancer.interval_ms = 10;
    router_options.rebalancer.cooldown_ms = 50;
    router_options.rebalancer.reslice_deadband = 2;
    router_options.rebalancer.migrate = false;  // every workflow is pinned
    router_options.rebalancer.scale = false;
  }
  AsVisorRouter router(router_options);
  for (int i = 0; i < kSkewWorkflows; ++i) {
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 8;
    // Per-workflow concurrency far above any shard slice, so the SHARD
    // budget — the thing re-slicing moves — is the binding constraint.
    options.max_concurrency = 32;
    options.queue_capacity = 512;
    options.queueing_budget_ms = 60'000;
    options.pin_shard = i % static_cast<int>(kSkewShards);
    router.RegisterWorkflow(
        OneStage("skew-" + std::to_string(i), "bench.skew-sleep"), options);
  }
  AsVisor::ServingOptions serving;
  serving.max_inflight = 32;
  if (!router.StartWatchdog(0, serving).ok()) {
    std::fprintf(stderr, "watchdog start failed for skew run\n");
    return run;
  }
  for (int i = 0; i < kSkewWorkflows; ++i) {
    for (int j = 0; j < 2; ++j) {
      (void)router.Invoke("skew-" + std::to_string(i), asbase::Json());
    }
  }

  const std::vector<double> cdf = ZipfCdf(kSkewWorkflows, 1.1);
  asbase::Histogram latency;
  std::mutex latency_mutex;
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const int64_t start = asbase::MonoNanos();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      asbase::Rng rng(0x5eedULL + static_cast<uint64_t>(c));
      for (int i = 0; i < warmup_per_client + measured_per_client; ++i) {
        size_t workflow = 0;
        if (zipf) {
          const double u = rng.NextDouble();
          while (workflow + 1 < cdf.size() && u >= cdf[workflow]) {
            ++workflow;
          }
        } else {
          workflow = rng.Below(kSkewWorkflows);
        }
        const int64_t t0 = asbase::MonoNanos();
        const ashttp::HttpResponse response = router.Dispatch(
            InvokeRequest("skew-" + std::to_string(workflow)));
        if (response.status != 200) {
          ++errors;
        } else if (i >= warmup_per_client) {
          std::lock_guard<std::mutex> lock(latency_mutex);
          latency.Record(asbase::MonoNanos() - t0);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double seconds = static_cast<double>(asbase::MonoNanos() - start) / 1e9;
  if (final_slices != nullptr) {
    final_slices->clear();
    for (size_t i = 0; i < router.shard_count(); ++i) {
      final_slices->push_back(router.shard(i).max_inflight());
    }
  }
  router.StopWatchdog();

  run.completed = latency.count();
  run.errors = errors.load();
  run.rps = seconds > 0 ? static_cast<double>(run.completed) / seconds : 0;
  run.p99_nanos = latency.Percentile(0.99);
  return run;
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  bool zipf = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
    if (std::strcmp(argv[i], "--zipf") == 0) {
      zipf = true;
    }
  }
  const std::vector<size_t> shard_counts =
      quick ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  const int clients = quick ? 16 : 256;
  const int requests_per_client = quick ? 5 : 25;
  const int parity_n = quick ? 20 : 200;

  PrintHeader("sharding", "per-core visor shards behind a consistent-hash "
                          "router");
  RegisterFunctions();

  asbase::Json doc;
  doc.Set("bench", "sharding");
  doc.Set("scale", asbase::SimCostModel::Global().scale);
  doc.Set("quick", quick);

  // ------------------------------------------------------- 1. shard scaling
  std::printf("\nmixed load: %d workflows, %d closed-loop clients x %d "
              "requests (sleep ~2ms)\n",
              kWorkflows, clients, requests_per_client);
  std::printf("  %-8s %10s %10s %10s %8s\n", "shards", "RPS", "p99", "done",
              "errors");
  asbase::Json rps_json{asbase::JsonObject{}};
  asbase::Json p99_json{asbase::JsonObject{}};
  double rps_1 = 0;
  double rps_4 = 0;
  for (size_t shards : shard_counts) {
    const ShardRun run = RunMixedLoad(shards, clients, requests_per_client);
    std::printf("  %-8zu %10.0f %10s %10lld %8lld\n", shards, run.rps,
                Ms(run.p99_nanos).c_str(),
                static_cast<long long>(run.completed),
                static_cast<long long>(run.errors));
    rps_json.Set(std::to_string(shards), run.rps);
    p99_json.Set(std::to_string(shards), run.p99_nanos);
    if (shards == 1) {
      rps_1 = run.rps;
    }
    if (shards == 4) {
      rps_4 = run.rps;
    }
  }
  doc.Set("rps_by_shards", std::move(rps_json));
  doc.Set("p99_by_shards", std::move(p99_json));
  if (rps_1 > 0 && rps_4 > 0) {
    std::printf("  4-shard vs 1-shard speedup: %.2fx\n", rps_4 / rps_1);
    doc.Set("speedup_4_vs_1", rps_4 / rps_1);
  }

  // --------------------------------------------------- 2. warm p50 parity
  // bench_serving §1 warm config through a 1-shard router: sharding must
  // not tax the single-tenant warm path.
  {
    RouterOptions router_options;
    router_options.shards = 1;
    AsVisorRouter router(router_options);
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 2;
    router.RegisterWorkflow(OneStage("shard-warm", "bench.shard-io"), options);
    asbase::Histogram warm_hist;
    for (int i = 0; i < parity_n; ++i) {
      auto invoked = router.Invoke("shard-warm", asbase::Json());
      if (invoked.ok()) {
        warm_hist.Record(invoked->end_to_end_nanos);
      }
    }
    std::printf("\n1-shard warm closed loop (%d invocations, IO workflow): "
                "p50 %s  p99 %s\n",
                parity_n, Ms(warm_hist.Percentile(0.5)).c_str(),
                Ms(warm_hist.Percentile(0.99)).c_str());
    doc.Set("one_shard_warm_p50_nanos", warm_hist.Percentile(0.5));
    doc.Set("one_shard_warm", warm_hist.ToJson());
  }

  // ------------------------------------------- 3. zipf skew + rebalancer
  if (zipf) {
    const int skew_clients = quick ? 32 : 192;
    const int skew_warmup = quick ? 3 : 10;
    const int skew_measured = quick ? 8 : 50;
    std::printf("\nzipf skew: 8 workflows pinned 2-per-shard on 4 shards, "
                "%d clients x %d requests (Zipf s=1.1)\n",
                skew_clients, skew_measured);
    std::printf("  %-24s %10s %10s %10s %8s\n", "run", "RPS", "p99", "done",
                "errors");
    auto print_run = [](const char* name, const ShardRun& run) {
      std::printf("  %-24s %10.0f %10s %10lld %8lld\n", name, run.rps,
                  Ms(run.p99_nanos).c_str(),
                  static_cast<long long>(run.completed),
                  static_cast<long long>(run.errors));
    };
    const ShardRun uniform = RunSkewedLoad(
        false, false, skew_clients, skew_warmup, skew_measured, nullptr);
    print_run("uniform", uniform);
    const ShardRun skew_off = RunSkewedLoad(
        true, false, skew_clients, skew_warmup, skew_measured, nullptr);
    print_run("zipf, rebalancer off", skew_off);
    std::vector<size_t> slices;
    const ShardRun skew_on = RunSkewedLoad(
        true, true, skew_clients, skew_warmup, skew_measured, &slices);
    print_run("zipf, rebalancer on", skew_on);
    std::string slices_text;
    asbase::Json slices_json{asbase::JsonArray{}};
    for (size_t slice : slices) {
      if (!slices_text.empty()) {
        slices_text += "/";
      }
      slices_text += std::to_string(slice);
      slices_json.Append(static_cast<int64_t>(slice));
    }
    std::printf("  final slices with rebalancer: %s (even would be 8/8/8/8)\n",
                slices_text.c_str());
    doc.Set("zipf_uniform_p99_nanos", uniform.p99_nanos);
    doc.Set("zipf_off_p99_nanos", skew_off.p99_nanos);
    doc.Set("zipf_on_p99_nanos", skew_on.p99_nanos);
    doc.Set("zipf_final_slices", std::move(slices_json));
    if (skew_on.p99_nanos > 0) {
      const double vs_off = static_cast<double>(skew_off.p99_nanos) /
                            static_cast<double>(skew_on.p99_nanos);
      const double vs_uniform = static_cast<double>(skew_on.p99_nanos) /
                                static_cast<double>(uniform.p99_nanos);
      std::printf("  rebalancer-on p99 is %.2fx better than off, %.2fx the "
                  "uniform baseline\n",
                  vs_off, vs_uniform);
      doc.Set("zipf_on_vs_off_p99", vs_off);
      doc.Set("zipf_on_vs_uniform_p99", vs_uniform);
    }
  }

  const std::string text = doc.Dump(2);
  if (FILE* f = std::fopen("BENCH_sharding.json", "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nresults written to BENCH_sharding.json\n");
  }
  return 0;
}

}  // namespace asbench

int main(int argc, char** argv) { return asbench::Main(argc, argv); }
