// alloy-bench server: one AsVisorRouter serving POST /invoke over its
// default edge, with the benchmark's workflows registered under default
// options (the host's default MPK backend included).
//
//   alloy_bench_server --workload warm-tiny|cold-tiny|dataflow-wordcount
//                      [--trace 1 --spans-out FILE]
//
// Prints one "READY {json}" line (ports, workflow names, machine
// fingerprint) once it serves, then runs until stdin reaches EOF or reads
// "stop"; each "usage" line gets one JSON line of getrusage figures back. With --trace 1 it also starts a second, traced front: an
// ashttp::HttpServer with default options whose handler times
// AsVisorRouter::Dispatch, the same call the router's own front makes. The
// bench-owned function wrappers time their AsStd / ExecEnv calls when the
// request body carries a "rid". Spans and the shards' flight records stay
// in memory and are written to --spans-out as JSON lines at exit.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/core/visor/orchestrator.h"
#include "src/core/visor/visor_router.h"
#include "src/core/wfd.h"
#include "src/http/http.h"
#include "src/mpk/pkey_runtime.h"
#include "src/workloads/alloystack_env.h"
#include "src/workloads/generic_apps.h"

#ifndef ALLOY_BENCH_BUILD_TYPE
#define ALLOY_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

constexpr size_t kTinyBytes = 4096;
constexpr int kWordCountWidth = 4;

// One recorded interval. `parent` is 0 for spans whose parent lives in
// another process or in the flight record (the analysis links those by
// request id); counter snapshots ride on function spans.
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;
  int64_t rid = -1;
  std::string name;
  std::string workflow;
  int64_t start = 0;
  int64_t end = 0;
  int stage = -1;
  int instance = -1;
  // Per-WFD counters at span start/end (function spans only).
  uint64_t enters[2] = {0, 0};
  uint64_t switches[2] = {0, 0};
  uint64_t syscalls[2] = {0, 0};
};

class SpanLog {
 public:
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
  }

  std::vector<SpanRecord> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  std::atomic<uint32_t> next_id_{1};
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

SpanLog& Spans() {
  static SpanLog* log = new SpanLog();
  return *log;
}

// Traced requests carry their id in the body; untraced bodies have none,
// so the wrappers record nothing for them.
int64_t RequestId(const asbase::Json& params) {
  return params.contains("rid") ? params["rid"].as_int(-1) : -1;
}

// Times one call made from a bench-owned function when the request is
// traced, parenting it under that function's span.
template <typename Fn>
auto Timed(int64_t rid, uint32_t parent, const char* name, Fn&& fn)
    -> decltype(fn()) {
  if (rid < 0) {
    return fn();
  }
  SpanRecord span;
  span.id = Spans().NextId();
  span.parent = parent;
  span.rid = rid;
  span.name = name;
  span.start = asbase::MonoNanos();
  auto result = fn();
  span.end = asbase::MonoNanos();
  Spans().Add(std::move(span));
  return result;
}

// The span of one function instance, with the WFD's trampoline, PKRU and
// AsStd call counters read at both ends.
class FunctionSpan {
 public:
  FunctionSpan(alloy::FunctionContext& context, const char* name)
      : context_(context), rid_(RequestId(context.params())) {
    if (rid_ < 0) {
      return;
    }
    span_.id = Spans().NextId();
    span_.rid = rid_;
    span_.name = name;
    span_.stage = context.stage();
    span_.instance = context.instance();
    ReadCounters(0);
    span_.start = asbase::MonoNanos();
  }
  ~FunctionSpan() {
    if (rid_ < 0) {
      return;
    }
    span_.end = asbase::MonoNanos();
    ReadCounters(1);
    Spans().Add(std::move(span_));
  }
  FunctionSpan(const FunctionSpan&) = delete;
  FunctionSpan& operator=(const FunctionSpan&) = delete;

  int64_t rid() const { return rid_; }
  uint32_t id() const { return span_.id; }

 private:
  void ReadCounters(int side) {
    alloy::Wfd& wfd = context_.as().wfd();
    span_.enters[side] = wfd.trampoline().enter_count();
    span_.switches[side] = wfd.mpk().switch_count();
    span_.syscalls[side] = context_.as().syscall_count();
  }

  alloy::FunctionContext& context_;
  int64_t rid_;
  SpanRecord span_;
};

// ---------------------------------------------------------------- tiny

const std::vector<uint8_t>& TinyBlock() {
  static const std::vector<uint8_t>* block = [] {
    auto* bytes = new std::vector<uint8_t>(kTinyBytes);
    for (size_t i = 0; i < bytes->size(); ++i) {
      (*bytes)[i] = static_cast<uint8_t>((i * 131u + 7u) & 0xff);
    }
    return bytes;
  }();
  return *block;
}

// 4 KiB LibOS file write and read-back; the result is the verified size.
asbase::Status TinyFunction(alloy::FunctionContext& context) {
  FunctionSpan fn(context, "fn.tiny");
  const std::vector<uint8_t>& block = TinyBlock();
  AS_RETURN_IF_ERROR(Timed(fn.rid(), fn.id(), "asstd.fs_write", [&] {
    return context.as().WriteWholeFile("/tiny.bin", block);
  }));
  AS_ASSIGN_OR_RETURN(std::vector<uint8_t> back,
                      Timed(fn.rid(), fn.id(), "asstd.fs_read", [&] {
                        return context.as().ReadWholeFile("/tiny.bin");
                      }));
  if (back != block) {
    return asbase::DataLoss("tiny read-back differs from what was written");
  }
  context.SetResult(std::to_string(back.size()));
  return asbase::OkStatus();
}

// ----------------------------------------------------------- wordcount

// First stage: the corpus arrives in the /invoke body; write it into the
// LibOS filesystem where the map stage reads it.
asbase::Status IngestFunction(alloy::FunctionContext& context) {
  FunctionSpan fn(context, "fn.wc.ingest");
  const asbase::Json& params = context.params();
  const std::string& corpus = params["corpus"].as_string();
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(corpus.data()), corpus.size());
  return Timed(fn.rid(), fn.id(), "asstd.fs_write", [&] {
    return context.as().WriteWholeFile(params["input"].as_string(), bytes);
  });
}

// Wraps one WordCount function so its ExecEnv calls are timed.
alloy::UserFunction WrapGeneric(aswl::GenericFn body) {
  return [body](alloy::FunctionContext& context) -> asbase::Status {
    FunctionSpan fn(context, "fn.wc");
    aswl::ExecEnv env = aswl::BindAlloyStackEnv(context);
    const int64_t rid = fn.rid();
    if (rid >= 0) {
      const uint32_t parent = fn.id();
      env.read_input = [read = env.read_input, rid,
                        parent](const std::string& path) {
        return Timed(rid, parent, "asstd.fs_read", [&] { return read(path); });
      };
      env.alloc = [alloc = env.alloc, rid, parent](const std::string& slot,
                                                   size_t size) {
        return Timed(rid, parent, "asbuf.alloc",
                     [&] { return alloc(slot, size); });
      };
      env.send = [send = env.send, rid, parent](const std::string& slot,
                                                aswl::EnvBuffer buffer) {
        return Timed(rid, parent, "asbuf.send",
                     [&] { return send(slot, std::move(buffer)); });
      };
      env.recv = [recv = env.recv, rid, parent](const std::string& slot) {
        return Timed(rid, parent, "asbuf.acquire", [&] { return recv(slot); });
      };
    }
    return body(env);
  };
}

alloy::WorkflowSpec RegisterWordCount() {
  auto& registry = alloy::FunctionRegistry::Global();
  alloy::WorkflowSpec spec;
  spec.name = "wordcount";
  registry.Register("bench.wc.ingest", IngestFunction);
  spec.stages.push_back(
      alloy::StageSpec{{alloy::FunctionSpec{"bench.wc.ingest", 1, 0}}});
  for (const aswl::GenericStage& stage :
       aswl::WordCountWorkflow(kWordCountWidth).stages) {
    alloy::StageSpec stage_spec;
    for (const aswl::GenericFunction& function : stage.functions) {
      const std::string name = "bench." + function.name;
      registry.Register(name, WrapGeneric(function.fn));
      stage_spec.functions.push_back(
          alloy::FunctionSpec{name, function.instances, 0});
    }
    spec.stages.push_back(std::move(stage_spec));
  }
  return spec;
}

// One tiny tenant per shard: the first name the router's hash places on
// each shard, so every workflow keeps the default placement.
std::vector<std::string> TinyTenantNames(const alloy::AsVisorRouter& router) {
  const size_t shards = router.shard_count();
  std::vector<std::string> names(shards);
  size_t filled = 0;
  for (int k = 0; filled < shards && k < 100000; ++k) {
    const std::string name = "tiny-" + std::to_string(k);
    std::string& slot = names[router.HashShard(name)];
    if (slot.empty()) {
      slot = name;
      ++filled;
    }
  }
  names.erase(std::remove(names.begin(), names.end(), std::string()),
              names.end());
  return names;
}

// ------------------------------------------------------------- output

asbase::Json SpanJson(const SpanRecord& span) {
  asbase::Json row;
  row.Set("kind", "span");
  row.Set("id", static_cast<int64_t>(span.id));
  row.Set("parent", static_cast<int64_t>(span.parent));
  row.Set("rid", span.rid);
  row.Set("name", span.name);
  row.Set("start", span.start);
  row.Set("end", span.end);
  if (!span.workflow.empty()) {
    row.Set("workflow", span.workflow);
  }
  if (span.stage >= 0) {
    row.Set("stage", static_cast<int64_t>(span.stage));
    row.Set("instance", static_cast<int64_t>(span.instance));
    row.Set("enters", asbase::JsonArray{span.enters[0], span.enters[1]});
    row.Set("switches",
            asbase::JsonArray{span.switches[0], span.switches[1]});
    row.Set("syscalls",
            asbase::JsonArray{span.syscalls[0], span.syscalls[1]});
  }
  return row;
}

asbase::Json FlightJson(const asobs::FlightRecord& record) {
  asbase::Json row;
  row.Set("kind", "flight");
  row.Set("workflow", record.workflow);
  row.Set("outcome", asobs::FlightOutcomeName(record.outcome));
  row.Set("warm_start", record.warm_start);
  row.Set("start", record.start_nanos);
  row.Set("end", record.end_nanos);
  row.Set("total", record.total_nanos);
  row.Set("queue_wait", record.queue_wait_nanos);
  row.Set("lease", record.lease_nanos);
  row.Set("module_load", record.module_load_nanos);
  row.Set("exec", record.exec_nanos);
  row.Set("net", record.net_nanos);
  row.Set("reset", record.reset_nanos);
  return row;
}

// Copies every shard's new flight records into memory; the rings hold
// only the most recent invocations, so the traced run drains them often.
class FlightDrain {
 public:
  explicit FlightDrain(alloy::AsVisorRouter* router) : router_(router) {
    since_.assign(router->shard_count(), 0);
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        cv_.wait_for(lock, std::chrono::milliseconds(20));
        DrainLocked();
      }
    });
  }
  ~FlightDrain() { Stop(); }
  FlightDrain(const FlightDrain&) = delete;
  FlightDrain& operator=(const FlightDrain&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
  }

  const std::vector<asobs::FlightRecord>& records() const { return records_; }

 private:
  void DrainLocked() {
    for (size_t i = 0; i < since_.size(); ++i) {
      for (asobs::FlightRecord& record :
           router_->ShardPtr(i)->flight().Snapshot("", since_[i])) {
        since_[i] = std::max(since_[i], record.end_nanos);
        records_.push_back(std::move(record));
      }
    }
  }

  alloy::AsVisorRouter* router_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<int64_t> since_;
  std::vector<asobs::FlightRecord> records_;
  std::thread thread_;
};

// Whole-process resource use, threads that already exited included:
// microsecond CPU times, faults, context switches, peak RSS.
asbase::Json UsageJson() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  asbase::Json row;
  row.Set("utime_us", micros(usage.ru_utime));
  row.Set("stime_us", micros(usage.ru_stime));
  row.Set("minflt", static_cast<int64_t>(usage.ru_minflt));
  row.Set("vcsw", static_cast<int64_t>(usage.ru_nvcsw));
  row.Set("ivcsw", static_cast<int64_t>(usage.ru_nivcsw));
  row.Set("maxrss_kb", static_cast<int64_t>(usage.ru_maxrss));
  return row;
}

int Usage() {
  std::fprintf(stderr,
               "usage: alloy_bench_server --workload "
               "warm-tiny|cold-tiny|dataflow-wordcount "
               "[--trace 0|1] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bool trace = false;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (workload != "warm-tiny" && workload != "cold-tiny" &&
      workload != "dataflow-wordcount") {
    return Usage();
  }
  if (trace && spans_out.empty()) {
    return Usage();
  }

  alloy::AsVisorRouter router;
  std::vector<std::string> workflows;
  if (workload == "dataflow-wordcount") {
    router.RegisterWorkflow(RegisterWordCount());
    workflows.push_back("wordcount");
  } else {
    alloy::FunctionRegistry::Global().Register("bench.tiny", TinyFunction);
    for (const std::string& name : TinyTenantNames(router)) {
      alloy::WorkflowSpec spec;
      spec.name = name;
      spec.stages.push_back(
          alloy::StageSpec{{alloy::FunctionSpec{"bench.tiny", 1, 0}}});
      alloy::AsVisor::WorkflowOptions options;
      if (workload == "cold-tiny") {
        options.pool_size = 0;
      }
      router.RegisterWorkflow(spec, options);
      workflows.push_back(name);
    }
  }

  asbase::Status started = router.StartWatchdog(0);
  if (!started.ok()) {
    std::fprintf(stderr, "watchdog: %s\n", started.ToString().c_str());
    return 1;
  }

  std::unique_ptr<ashttp::HttpServer> traced_front;
  std::unique_ptr<FlightDrain> drain;
  if (trace) {
    traced_front = std::make_unique<ashttp::HttpServer>(
        [&router](const ashttp::HttpRequest& request) {
          if (request.method != "POST" ||
              request.target.rfind("/invoke/", 0) != 0) {
            ashttp::HttpResponse response;
            response.status = 404;
            response.reason = "Not Found";
            return response;
          }
          SpanRecord span;
          span.id = Spans().NextId();
          auto rid = request.headers.find("x-request-id");
          span.rid = rid == request.headers.end()
                         ? -1
                         : std::atoll(rid->second.c_str());
          span.name = "router.dispatch";
          span.workflow = request.target.substr(std::string("/invoke/").size());
          span.start = asbase::MonoNanos();
          ashttp::HttpResponse response = router.Dispatch(request);
          span.end = asbase::MonoNanos();
          Spans().Add(std::move(span));
          return response;
        });
    asbase::Status traced = traced_front->Start(0);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced front: %s\n", traced.ToString().c_str());
      router.StopWatchdog();
      return 1;
    }
    drain = std::make_unique<FlightDrain>(&router);
  }

  const auto& cost = asbase::SimCostModel::Global();
  asbase::Json ready;
  ready.Set("port", static_cast<int64_t>(router.watchdog_port()));
  ready.Set("trace_port", static_cast<int64_t>(
                              traced_front ? traced_front->port() : 0));
  asbase::JsonArray names;
  for (const std::string& name : workflows) {
    names.push_back(name);
  }
  ready.Set("workflows", std::move(names));
  ready.Set("shards", static_cast<int64_t>(router.shard_count()));
  ready.Set("mpk_backend", asmpk::MpkBackendName(
                               alloy::WfdOptions{}.mpk_backend));
  ready.Set("sim_scale", cost.scale);
  ready.Set("dlmopen_per_module_nanos", cost.dlmopen_per_module_nanos);
  ready.Set("wrpkru_nanos", cost.wrpkru_nanos);
  ready.Set("build_type", ALLOY_BENCH_BUILD_TYPE);
  std::printf("READY %s\n", ready.Dump().c_str());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line) && line != "stop") {
    if (line == "usage") {
      std::printf("%s\n", UsageJson().Dump().c_str());
      std::fflush(stdout);
    }
  }

  if (traced_front) {
    traced_front->Stop();
  }
  router.StopWatchdog();
  if (drain) {
    drain->Stop();
    std::ofstream out(spans_out, std::ios::trunc);
    for (const SpanRecord& span : Spans().Take()) {
      out << SpanJson(span).Dump() << '\n';
    }
    for (const asobs::FlightRecord& record : drain->records()) {
      out << FlightJson(record).Dump() << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "could not write %s\n", spans_out.c_str());
      return 1;
    }
  }
  return 0;
}
