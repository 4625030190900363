// WordCount through the full AlloyStack control plane (§3.2):
//
// A JSON workflow configuration is registered with as-visor, the watchdog
// exposes it on an HTTP endpoint, and this program triggers it the way a
// gateway would — POST /invoke/wordcount. Each invocation instantiates a
// fresh WFD, runs map/reduce/collect stages with reference-passed
// intermediate data, and reclaims everything.
//
//   $ ./examples/wordcount_app

#include <cstdio>

#include "src/common/histogram.h"
#include "src/core/visor/visor_router.h"
#include "src/workloads/alloystack_env.h"
#include "src/workloads/generic_apps.h"
#include "src/workloads/inputs.h"

namespace {

// Invoke() creates the WFD itself, so the input has to come from somewhere
// inside the workflow: stage 0 generates the corpus onto the WFD disk.
asbase::Status GenerateCorpus(alloy::FunctionContext& ctx) {
  const size_t bytes =
      static_cast<size_t>(ctx.params()["corpus_bytes"].as_int(1 << 20));
  auto corpus = aswl::MakeTextCorpus(bytes, 2025);
  return ctx.as().WriteWholeFile("/input.bin", corpus);
}

}  // namespace

int main() {
  // Register the application functions (map/reduce/collect ×3 instances).
  alloy::WorkflowSpec wc_spec =
      aswl::RegisterAlloyStackWorkflow(aswl::WordCountWorkflow(3));
  alloy::FunctionRegistry::Global().Register("wc.generate", GenerateCorpus);

  // Build the full workflow: generate -> map x3 -> reduce x3 -> collect.
  asbase::Json config;
  config.Set("name", "wordcount");
  asbase::Json stages;
  {
    asbase::Json stage0;
    asbase::Json fn;
    fn.Set("name", "wc.generate");
    stage0.Set("functions", asbase::Json(asbase::JsonArray{fn}));
    stages.Append(stage0);
    for (const auto& stage : wc_spec.stages) {
      asbase::Json stage_json;
      asbase::JsonArray functions;
      for (const auto& function : stage.functions) {
        asbase::Json fn_json;
        fn_json.Set("name", function.name);
        fn_json.Set("instances", function.instances);
        functions.push_back(fn_json);
      }
      stage_json.Set("functions", asbase::Json(std::move(functions)));
      stages.Append(stage_json);
    }
  }
  config.Set("stages", stages);
  asbase::Json options;
  options.Set("heap_mb", 64);
  config.Set("options", options);

  // The watchdog is a 1-shard router: one HTTP front over one visor.
  alloy::RouterOptions router_options;
  router_options.shards = 1;
  alloy::AsVisorRouter router(router_options);
  auto registered = router.RegisterWorkflowFromJson(config);
  if (!registered.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }

  // Start the watchdog and invoke over HTTP, gateway-style.
  if (!router.StartWatchdog(0).ok()) {
    std::fprintf(stderr, "watchdog failed to start\n");
    return 1;
  }
  std::printf("watchdog listening on 127.0.0.1:%u\n", router.watchdog_port());

  for (size_t corpus_bytes : {256u << 10, 1u << 20}) {
    ashttp::HttpRequest request;
    request.method = "POST";
    request.target = "/invoke/wordcount";
    asbase::Json params;
    params.Set("corpus_bytes", static_cast<int64_t>(corpus_bytes));
    params.Set("input", "/input.bin");
    request.body = params.Dump();

    auto response =
        ashttp::HttpCall("127.0.0.1", router.watchdog_port(), request);
    if (!response.ok() || response->status != 200) {
      std::fprintf(stderr, "invoke failed\n");
      return 1;
    }
    std::printf("POST /invoke/wordcount (%s corpus)\n  -> %s\n",
                asbase::FormatBytes(corpus_bytes).c_str(),
                response->body.c_str());

    // Verify the answer independently.
    auto expected = aswl::ExpectedWordCountResult(
        aswl::MakeTextCorpus(corpus_bytes, 2025));
    const bool correct =
        response->body.find(expected) != std::string::npos;
    std::printf("  verified against native recount: %s\n",
                correct ? "MATCH" : "MISMATCH");
    if (!correct) {
      return 1;
    }
  }

  auto histogram = router.LatencyHistogram("wordcount");
  if (histogram.ok()) {
    std::printf("latency over %zu invocations: %s\n", histogram->count(),
                histogram->Summary().c_str());
  }
  router.StopWatchdog();
  return 0;
}
