#include "src/core/visor/visor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/rebalance.h"

namespace alloy {
namespace {

// Smoothing for the per-workflow service-time EWMA behind the
// queue-with-budget admission predictor.
constexpr double kServiceAlpha = 0.2;

// Flight-ring capacity when ALLOY_FLIGHT_RING is unset.
constexpr size_t kDefaultFlightRing = 1024;

// Burn rates export through int64 gauges; scale to milli-units (burn 1.0 →
// gauge 1000) so fractional burns stay visible. Documented in docs/metrics.md.
int64_t BurnMilli(double burn) {
  return static_cast<int64_t>(std::llround(
      std::min(burn, 1e12) * 1000.0));
}

asbase::Json SummarizeTrace(const asobs::Trace& trace) {
  asbase::Json summary;
  summary.Set("workflow", trace.workflow());
  asbase::Json spans{asbase::JsonArray{}};
  for (const asobs::SpanRecord& record : trace.Spans()) {
    asbase::Json span;
    span.Set("id", static_cast<int64_t>(record.id));
    span.Set("parent", static_cast<int64_t>(record.parent));
    span.Set("name", record.name);
    span.Set("category", record.category);
    span.Set("dur_nanos", record.duration_nanos);
    spans.Append(std::move(span));
  }
  summary.Set("spans", std::move(spans));
  return summary;
}

// Integer option `key` of a JSON registration: absent leaves *out alone;
// outside [min, max] is InvalidArgument, like every other malformed field.
template <typename T>
asbase::Status IntOption(const asbase::Json& opts, const char* key,
                         int64_t min, int64_t max, T* out) {
  const asbase::Json& field = opts[key];
  if (!field.is_number()) {
    return asbase::OkStatus();
  }
  const int64_t value = field.as_int();
  if (value < min || value > max) {
    return asbase::InvalidArgument(
        std::string(key) + " must be in [" + std::to_string(min) + ", " +
        std::to_string(max) + "], got " + std::to_string(value));
  }
  *out = static_cast<T>(value);
  return asbase::OkStatus();
}

// Upper bound for heap_mb / disk_mb (1 TiB): keeps the byte and block
// conversions far from overflow.
constexpr int64_t kMaxOptionMb = int64_t{1} << 20;

}  // namespace

AsVisor::AsVisor(ShardIdentity shard)
    : shard_(std::move(shard)),
      inflight_gauge_(&asobs::Registry::Global().GetGauge(
          "alloy_visor_inflight", ShardLabels())) {
  flight_ = std::make_unique<asobs::FlightRecorder>(static_cast<size_t>(
      asbase::EnvInt64("ALLOY_FLIGHT_RING", kDefaultFlightRing)));
  const char* blackbox_dir = std::getenv("ALLOY_BLACKBOX_DIR");
  blackbox_dir_ = blackbox_dir != nullptr && *blackbox_dir != '\0'
                      ? blackbox_dir
                      : ".";
  asobs::Registry& registry = asobs::Registry::Global();
  flight_records_ = &registry.GetCounter("alloy_visor_flight_records_total",
                                         ShardLabels());
  flight_dropped_ = &registry.GetCounter("alloy_visor_flight_dropped_total",
                                         ShardLabels());
  traces_retained_ = &registry.GetCounter("alloy_visor_traces_retained_total",
                                          ShardLabels());
  blackbox_counter_ = &registry.GetCounter(
      "alloy_slo_blackbox_snapshots_total", ShardLabels());
}

AsVisor::~AsVisor() {
  StopServing();
  ShutdownPools();
}

asobs::Labels AsVisor::ShardLabels() const {
  if (shard_.index < 0) {
    return {};
  }
  return {{"alloy_visor_shard", std::to_string(shard_.index)}};
}

asobs::Labels AsVisor::WorkflowLabels(
    const std::string& workflow_name) const {
  asobs::Labels labels = {{"workflow", workflow_name}};
  if (shard_.index >= 0) {
    labels.push_back({"alloy_visor_shard", std::to_string(shard_.index)});
  }
  return labels;
}

void AsVisor::RegisterWorkflow(const WorkflowSpec& spec) {
  RegisterWorkflow(spec, WorkflowOptions{});
}

void AsVisor::RegisterWorkflow(const WorkflowSpec& spec,
                               WorkflowOptions options) {
  if (!(options.weight >= 1e-6)) {  // also catches NaN
    options.weight = 1.0;
  }
  asobs::Registry& registry = asobs::Registry::Global();
  const asobs::Labels labels = WorkflowLabels(spec.name);
  auto reg = std::make_shared<Registration>();
  reg->spec = spec;
  reg->invocations =
      &registry.GetCounter("alloy_visor_invocations_total", labels);
  reg->failures =
      &registry.GetCounter("alloy_visor_invocation_failures_total", labels);
  reg->timeouts = &registry.GetCounter("alloy_visor_timeouts_total", labels);
  reg->invoke_hist = &registry.GetHistogram("alloy_visor_invoke_nanos", labels);
  reg->snapshot_creates =
      &registry.GetCounter("alloy_visor_snapshot_creates_total", labels);
  reg->snapshot_invalidations = &registry.GetCounter(
      "alloy_visor_snapshot_invalidations_total", labels);
  reg->flight_id = flight_->InternWorkflow(spec.name);
  reg->snapshot_max_bytes =
      static_cast<size_t>(asbase::EnvInt64("ALLOY_SNAPSHOT_MAX_BYTES", 0));
  BootPlan& boot = reg->boot;
  boot.wfd = options.wfd;
  boot.stage_workers =
      std::max<size_t>(Orchestrator::MaxStageFanout(spec), 1);
  boot.snapshot =
      std::make_shared<SnapshotCell>(asbase::EnvBool("ALLOY_SNAPSHOT", true));
  boot.clones =
      &registry.GetCounter("alloy_visor_snapshot_clones_total", labels);
  boot.fallbacks = &registry.GetCounter(
      "alloy_visor_snapshot_fallback_boots_total", labels);
  boot.clone_hist =
      &registry.GetHistogram("alloy_visor_snapshot_clone_nanos", labels);

  Entry entry;
  entry.rejections =
      &registry.GetCounter("alloy_visor_rejections_total", labels);
  entry.queued_gauge = &registry.GetGauge("alloy_visor_queued", labels);
  entry.queue_wait_hist =
      &registry.GetHistogram("alloy_visor_queue_wait_nanos", labels);
  if (options.slo_objective > 0) {
    asobs::SloOptions slo_options;
    slo_options.objective = std::min(options.slo_objective, 1.0);
    slo_options.latency_objective_ms = options.slo_latency_ms;
    entry.slo = std::make_shared<asobs::SloTracker>(slo_options);
    asobs::Labels fast_labels = labels;
    fast_labels.push_back({"window", "fast"});
    asobs::Labels slow_labels = labels;
    slow_labels.push_back({"window", "slow"});
    entry.burn_fast = &registry.GetGauge("alloy_slo_burn_rate", fast_labels);
    entry.burn_slow = &registry.GetGauge("alloy_slo_burn_rate", slow_labels);
  }

  WfdPoolOptions pool_options;
  pool_options.capacity = options.pool_size;
  pool_options.min_warm = std::min(options.min_warm, options.pool_size);
  pool_options.idle_ttl_ms = options.idle_ttl_ms;
  pool_options.extra_labels = ShardLabels();
  pool_options.log_shard = shard_.index;
  if (pool_options.capacity > 0 &&
      (pool_options.min_warm > 0 || pool_options.idle_ttl_ms > 0)) {
    // The warmer boots WFDs through the same path as an invoke miss; those
    // boots carry no invocation trace (there is none yet) and count as
    // prewarms, not misses. Captures a copy of the plan (not `this`): the
    // warmer may outlive the registration.
    pool_options.factory = [plan = boot] { return BootWfd(plan, nullptr, 0); };
  }
  reg->pool = std::make_shared<WfdPool>(spec.name, std::move(pool_options));
  reg->options = std::move(options);
  entry.reg = std::move(reg);
  std::shared_ptr<const Registration> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Overwrite drops the previous entry — including its pool, whose warm
    // WFDs were built from the old WfdOptions and must not serve the new
    // registration. In-flight invocations keep the old registration (and
    // its pool) alive via shared_ptr until they finish.
    auto it = workflows_.find(spec.name);
    if (it != workflows_.end()) {
      old = it->second.reg;
    }
    workflows_[spec.name] = std::move(entry);
    // A fresh registration supersedes any migration tombstone: requests for
    // this name belong here again, not wherever it moved to last time.
    migrated_out_.erase(spec.name);
  }
  // Requests queued against the old registration re-evaluate (their ticket
  // vanished with the old Entry).
  admission_cv_.notify_all();
  if (old != nullptr) {
    // Re-registration invalidates the old snapshot template: its images
    // were built from the old code/options and must not clone-boot the new
    // registration. The old cell may still be referenced by the orphaned
    // pool's factory; dropping the snapshot makes that factory fall back to
    // a full boot until the pool shuts down.
    if (old->boot.snapshot->Invalidate()) {
      old->snapshot_invalidations->Add(1);
    }
    // Stop the orphan's warmer now (it joins a thread — never under mutex_)
    // so it does not keep booting WFDs nobody will lease.
    old->pool->Shutdown();
  }
}

bool AsVisor::UnregisterWorkflow(const std::string& workflow_name) {
  std::shared_ptr<WfdPool> old_pool =
      RemoveEntry(workflow_name, /*tombstone=*/false);
  if (old_pool == nullptr) {
    return false;
  }
  old_pool->Shutdown();
  return true;
}

std::shared_ptr<WfdPool> AsVisor::RemoveEntry(const std::string& workflow_name,
                                              bool tombstone) {
  std::shared_ptr<WfdPool> old_pool;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow_name);
    if (it == workflows_.end()) {
      return nullptr;
    }
    old_pool = it->second.reg->pool;
    workflows_.erase(it);
    if (tombstone) {
      const int64_t now = asbase::MonoNanos();
      migrated_out_[workflow_name] = now;
      // Lazy prune: the map only grows by one entry per migration, so
      // sweeping it here keeps it bounded without a timer.
      for (auto tomb = migrated_out_.begin(); tomb != migrated_out_.end();) {
        if (now - tomb->second > kMigrationTombstoneNanos) {
          tomb = migrated_out_.erase(tomb);
        } else {
          ++tomb;
        }
      }
    }
  }
  // Queued admissions for this workflow wake and find their ticket gone:
  // they unwind with NotFound, or — past a tombstone — as *migrated*, and
  // the router re-dispatches them to the new owner (queue handoff).
  admission_cv_.notify_all();
  return old_pool;
}

// ---------------------------------------------- live migration (DESIGN §12)

asbase::Result<std::shared_ptr<const AsVisor::Registration>> AsVisor::Lookup(
    const std::string& workflow_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = workflows_.find(workflow_name);
  if (it == workflows_.end()) {
    return asbase::NotFound("no workflow named '" + workflow_name + "'");
  }
  return it->second.reg;
}

asbase::Result<AsVisor::WorkflowRegistration> AsVisor::GetRegistration(
    const std::string& workflow_name) const {
  AS_ASSIGN_OR_RETURN(std::shared_ptr<const Registration> reg,
                      Lookup(workflow_name));
  return WorkflowRegistration{reg->spec, reg->options};
}

std::shared_ptr<WfdPool> AsVisor::MigrateOut(const std::string& workflow_name) {
  return RemoveEntry(workflow_name, /*tombstone=*/true);
}

void AsVisor::AdoptWarmWfds(const std::string& workflow_name,
                            std::vector<std::unique_ptr<Wfd>> wfds) {
  auto reg = Lookup(workflow_name);
  if (!reg.ok()) {
    // Raced with an unregister: the WFDs die here (vector destructor).
    return;
  }
  for (std::unique_ptr<Wfd>& wfd : wfds) {
    (*reg)->pool->AdoptWarm(std::move(wfd));
  }
}

AsVisor::ShardLoad AsVisor::LoadSnapshot() const {
  ShardLoad load;
  std::lock_guard<std::mutex> lock(mutex_);
  load.inflight = inflight_global_;
  load.max_inflight = serving_.max_inflight;
  load.workflows.reserve(workflows_.size());
  for (const auto& [name, entry] : workflows_) {
    WorkflowLoad row;
    row.name = name;
    row.inflight = entry.inflight;
    row.queued = entry.waiters.size();
    row.service_ewma_nanos = entry.service_ewma_nanos;
    row.pinned = entry.reg->options.pin_shard >= 0;
    load.queued += row.queued;
    load.workflows.push_back(std::move(row));
  }
  return load;
}

asbase::Result<AsVisor::WorkflowRegistration> AsVisor::ParseWorkflowJson(
    const asbase::Json& config) {
  WorkflowRegistration registration;
  AS_ASSIGN_OR_RETURN(registration.spec, WorkflowSpec::FromJson(config));
  WorkflowOptions& options = registration.options;
  const asbase::Json& opts = config["options"];
  if (opts.is_object()) {
    options.wfd.use_ramfs = opts["ramfs"].as_bool(false);
    options.wfd.on_demand = !opts["load_all"].as_bool(false);
    options.wfd.reference_passing = opts["reference_passing"].as_bool(true);
    options.wfd.inter_function_isolation =
        opts["inter_function_isolation"].as_bool(false);
    // Sizes round-trip through MiB (the defaults are whole MiB).
    int64_t heap_mb = static_cast<int64_t>(options.wfd.heap_bytes >> 20);
    int64_t disk_mb = static_cast<int64_t>(options.wfd.disk_blocks / 2048);
    AS_RETURN_IF_ERROR(IntOption(opts, "heap_mb", 0, kMaxOptionMb, &heap_mb));
    AS_RETURN_IF_ERROR(IntOption(opts, "disk_mb", 0, kMaxOptionMb, &disk_mb));
    options.wfd.heap_bytes = static_cast<size_t>(heap_mb) << 20;
    options.wfd.disk_blocks = static_cast<uint64_t>(disk_mb) * 2048;
    AS_RETURN_IF_ERROR(IntOption(opts, "pool_size", 0, INT64_MAX,
                                 &options.pool_size));
    AS_RETURN_IF_ERROR(IntOption(opts, "min_warm", 0, INT64_MAX,
                                 &options.min_warm));
    AS_RETURN_IF_ERROR(IntOption(opts, "idle_ttl_ms", 0, INT64_MAX,
                                 &options.idle_ttl_ms));
    AS_RETURN_IF_ERROR(IntOption(opts, "queue_capacity", 0, INT64_MAX,
                                 &options.queue_capacity));
    AS_RETURN_IF_ERROR(IntOption(opts, "queueing_budget_ms", 0, INT64_MAX,
                                 &options.queueing_budget_ms));
    AS_RETURN_IF_ERROR(IntOption(opts, "max_concurrency", 1, INT32_MAX,
                                 &options.max_concurrency));
    AS_RETURN_IF_ERROR(IntOption(opts, "timeout_ms", 0, INT64_MAX,
                                 &options.timeout_ms));
    AS_RETURN_IF_ERROR(IntOption(opts, "pin_shard", -1, INT32_MAX,
                                 &options.pin_shard));
    AS_RETURN_IF_ERROR(IntOption(opts, "slo_latency_ms", 0, INT64_MAX,
                                 &options.slo_latency_ms));
    if (opts["weight"].is_number()) {
      const double value = opts["weight"].as_double();
      if (!(value > 0)) {
        return asbase::InvalidArgument("weight must be > 0");
      }
      options.weight = value;
    }
    if (opts["slo_objective"].is_number()) {
      const double value = opts["slo_objective"].as_double();
      if (value < 0 || value > 1) {
        return asbase::InvalidArgument("slo_objective must be in [0, 1]");
      }
      options.slo_objective = value;
    }
  }
  options.wfd.name = registration.spec.name;
  return registration;
}

asbase::Status AsVisor::RegisterWorkflowFromJson(const asbase::Json& config) {
  AS_ASSIGN_OR_RETURN(WorkflowRegistration registration,
                      ParseWorkflowJson(config));
  RegisterWorkflow(registration.spec, std::move(registration.options));
  return asbase::OkStatus();
}

asbase::Result<InvokeResult> AsVisor::Invoke(const std::string& workflow_name,
                                             const asbase::Json& params) {
  return Invoke(workflow_name, params, InvokeOptions{});
}

// One invocation in flight: the state the phases hand each other. Members
// die in reverse order: the lease ends (if nothing parked the WFD), then
// the WFD, which holds a raw pointer to the trace, dies before the trace.
struct AsVisor::Invocation {
  std::shared_ptr<const Registration> reg;
  std::shared_ptr<asobs::Trace> trace;
  asobs::Span root;
  // Stamped as phases complete and deposited on every exit path —
  // including failures, which is where a black box matters most.
  asobs::FlightRecord record;
  int64_t deadline_nanos = 0;
  int64_t loads_before = 0;
  InvokeResult result;
  std::unique_ptr<Wfd> wfd;
  // The lease counts toward the pool's warm target until it ends: Park
  // ends it (and clears this) on the success path; every path that
  // destroys the WFD instead ends it here.
  bool lease_open = false;

  ~Invocation() {
    if (lease_open) {
      reg->pool->AbandonLease();
    }
  }
};

asbase::Result<InvokeResult> AsVisor::Invoke(
    const std::string& workflow_name, const asbase::Json& params,
    const InvokeOptions& invoke_options) {
  // Everything logged while this invocation runs on this thread carries its
  // shard + workflow — WFD teardown included, so it outlives `inv`.
  asbase::ScopedLogContext log_context(shard_.index, workflow_name);
  Invocation inv;
  AS_ASSIGN_OR_RETURN(inv.reg, Lookup(workflow_name));

  const int64_t received_at = asbase::MonoNanos();
  const int64_t timeout_ms = inv.reg->options.timeout_ms;
  inv.deadline_nanos = timeout_ms > 0 ? received_at + timeout_ms * 1'000'000
                                      : 0;
  inv.reg->invocations->Add(1);

  // The trace outlives the WFD (which holds a raw pointer to it) and may
  // then be retained (tail-based, see AccountOutcome) for /trace.
  inv.trace = std::make_shared<asobs::Trace>(workflow_name);
  inv.root = inv.trace->StartSpan("invoke", "visor");
  inv.root.SetArg("workflow", workflow_name);
  if (invoke_options.queue_wait_nanos > 0) {
    // The admission wait happened before this trace existed; backfill it as
    // a completed span ending where the invoke span starts.
    inv.trace->RecordSpan("queue_wait", "visor", inv.root.id(),
                          received_at - invoke_options.queue_wait_nanos,
                          invoke_options.queue_wait_nanos);
  }
  inv.record.shard = shard_.index;
  inv.record.start_nanos = received_at;
  inv.record.queue_wait_nanos = invoke_options.queue_wait_nanos;

  if (asbase::Status leased = LeasePhase(inv); !leased.ok()) {
    return FailInvocation(inv, std::move(leased));
  }
  if (asbase::Status ran = ExecPhase(inv, params); !ran.ok()) {
    return FailInvocation(inv, std::move(ran));
  }
  ReclaimPhase(inv);
  return FinishPhase(inv);
}

asbase::Result<std::unique_ptr<Wfd>> AsVisor::BootWfd(const BootPlan& plan,
                                                      asobs::Trace* trace,
                                                      uint32_t trace_parent) {
  WfdOptions options = plan.wfd;
  options.trace = trace;
  options.trace_parent = trace_parent;
  auto span = [&](const char* name) {
    return trace != nullptr ? trace->StartSpan(name, "visor", trace_parent)
                            : asobs::Span();
  };
  // Primary path (DESIGN.md §14): clone-boot from the snapshot template —
  // O(µs) where a full boot is ~ms. Falls through to a full boot on any
  // clone failure (geometry drift, mmap failure) or when no template has
  // been captured yet.
  if (std::shared_ptr<const WfdSnapshot> snapshot = plan.snapshot->Get()) {
    asobs::Span clone_span = span("wfd_clone");
    auto clone_or = Wfd::CloneFromSnapshot(options, std::move(snapshot));
    clone_span.End();
    if (clone_or.ok()) {
      plan.clones->Add(1);
      plan.clone_hist->Record((*clone_or)->creation_nanos());
      return clone_or;
    }
    AS_LOG(kWarn) << "snapshot clone-boot failed ("
                  << clone_or.status().ToString()
                  << "); falling back to full boot";
  }
  asobs::Span create_span = span("wfd_create");
  AS_ASSIGN_OR_RETURN(std::unique_ptr<Wfd> wfd,
                      Wfd::Create(std::move(options)));
  wfd->EnsureStageWorkers(plan.stage_workers);
  plan.fallbacks->Add(1);
  return wfd;
}

asbase::Status AsVisor::LeasePhase(Invocation& inv) {
  // Step 1 (Fig 4): lease a warm WFD or boot one for this invocation. On a
  // warm hit cold start is skipped entirely; module loads are accounted as
  // a delta so only *new* loads count against this run.
  WfdPool& pool = *inv.reg->pool;
  const int64_t lease_start = asbase::MonoNanos();
  inv.wfd = pool.TryAcquireWarm();
  inv.lease_open = true;
  inv.result.warm_start = inv.wfd != nullptr;
  inv.record.warm_start = inv.result.warm_start;
  if (inv.result.warm_start) {
    inv.wfd->SetTrace(inv.trace.get(), inv.root.id());
    inv.loads_before = inv.wfd->libos().TotalLoadNanos();
    inv.root.SetArg("start", "warm");
  } else {
    auto wfd_or = BootWfd(inv.reg->boot, inv.trace.get(), inv.root.id());
    if (!wfd_or.ok()) {
      inv.record.lease_nanos = asbase::MonoNanos() - lease_start;
      return wfd_or.status();
    }
    inv.wfd = std::move(*wfd_or);
    inv.result.wfd_create_nanos = inv.wfd->creation_nanos();
    inv.result.clone_start = inv.wfd->cloned_from_snapshot();
    inv.root.SetArg("start", inv.result.clone_start ? "clone" : "cold");
  }
  // Lease phase: warm pop, or the cold start the miss forced.
  inv.record.lease_nanos = asbase::MonoNanos() - lease_start;
  pool.RecordLease(inv.record.lease_nanos);
  return asbase::OkStatus();
}

asbase::Status AsVisor::ExecPhase(Invocation& inv,
                                  const asbase::Json& params) {
  // Steps 2-6: run the workflow; modules load on demand inside. The
  // deadline is enforced cooperatively at stage barriers.
  Orchestrator orchestrator(inv.wfd.get());
  Orchestrator::RunOptions run_options;
  run_options.deadline_nanos = inv.deadline_nanos;
  const int64_t exec_start = asbase::MonoNanos();
  auto run_or = orchestrator.Run(inv.reg->spec, params, run_options);
  inv.record.exec_nanos = asbase::MonoNanos() - exec_start;
  Libos& libos = inv.wfd->libos();
  inv.record.module_load_nanos = libos.TotalLoadNanos() - inv.loads_before;
  if (!run_or.ok()) {
    // A failed (or timed-out) run leaves the WFD in an unknown state: it
    // dies with the invocation — never re-pooled — so the next invocation
    // cold-starts clean.
    return run_or.status();
  }
  InvokeResult& result = inv.result;
  result.run = std::move(*run_or);
  inv.record.net_nanos = result.run.phases.transfer_nanos;
  inv.record.stages = static_cast<uint32_t>(std::min(
      result.run.stage_nanos.size(), asobs::FlightRecord::kMaxStages));
  for (uint32_t i = 0; i < inv.record.stages; ++i) {
    inv.record.stage_nanos[i] = result.run.stage_nanos[i];
  }
  result.module_load_nanos = inv.record.module_load_nanos;
  result.cold_start_nanos = result.wfd_create_nanos + result.module_load_nanos;
  result.modules_loaded = libos.LoadedModules();
  result.resident_bytes = inv.wfd->ResidentBytes();
  return asbase::OkStatus();
}

void AsVisor::ReclaimPhase(Invocation& inv) {
  // Step 7: reset + park the WFD, or destroy it. Inside the root span so
  // end_to_end_nanos covers reclaim, and before the span set is finalized
  // so nothing touches the trace through the WFD's pointer afterwards.
  const Registration& reg = *inv.reg;
  const int64_t reset_start = asbase::MonoNanos();
  const bool pooled = reg.pool->capacity() > 0;
  // The first successful boot+invoke+reset freezes the snapshot template
  // (DESIGN.md §14); afterwards this is one mutex peek. A pool-less
  // workflow, which gains the most from a template, resets for it too.
  const bool capture = !inv.wfd->cloned_from_snapshot() &&
                       reg.boot.snapshot->CaptureWorthTrying();
  if (pooled || capture) {
    asobs::Span reset_span;
    if (pooled) {
      reset_span = inv.trace->StartSpan("pool_reset", "visor", inv.root.id());
    }
    const asbase::Status reset = inv.wfd->Reset();
    reset_span.End();
    if (reset.ok()) {
      inv.wfd->SetTrace(nullptr, 0);
      if (capture) {
        // Post-reset so the image holds no per-invocation state; pre-park
        // so the WFD is still exclusively ours.
        asobs::Span snap_span =
            inv.trace->StartSpan("snapshot_capture", "visor", inv.root.id());
        MaybeCaptureSnapshot(reg, *inv.wfd);
      }
      if (pooled) {
        reg.pool->Park(std::move(inv.wfd));
        inv.lease_open = false;
      }
    } else if (pooled) {
      AS_LOG(kWarn) << "WFD reset for '" << reg.spec.name << "' failed ("
                    << reset.ToString() << "); destroying";
      // A WFD that cannot reset throws doubt on the template it may have
      // been cloned from (e.g. leaked slots baked into the image): drop the
      // snapshot so the next boot rebuilds from scratch.
      if (reg.boot.snapshot->Invalidate()) {
        reg.snapshot_invalidations->Add(1);
      }
    }
  }
  inv.wfd.reset();
  inv.record.reset_nanos = asbase::MonoNanos() - reset_start;
}

InvokeResult AsVisor::FinishPhase(Invocation& inv) {
  InvokeResult& result = inv.result;
  result.end_to_end_nanos = EndFlight(inv, asobs::FlightOutcome::kOk);
  inv.reg->invoke_hist->Record(result.end_to_end_nanos);
  result.trace = inv.trace;
  result.span_summary = SummarizeTrace(*inv.trace);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(inv.reg->spec.name);
    if (it != workflows_.end()) {
      Entry& entry = it->second;
      entry.latency.Record(result.end_to_end_nanos);
      // Service time feeding the admission predictor: execution only (the
      // queue wait is the quantity being predicted, not part of service).
      const double sample = static_cast<double>(result.end_to_end_nanos);
      entry.service_ewma_nanos =
          entry.service_ewma_nanos == 0
              ? sample
              : kServiceAlpha * sample +
                    (1.0 - kServiceAlpha) * entry.service_ewma_nanos;
    }
  }
  // Tail-based retention + SLO accounting. A fast success is usually NOT
  // retained (threshold > 0); the trace still rode along in `result` for
  // the caller.
  AccountOutcome(inv.reg->spec.name, inv.trace, asobs::FlightOutcome::kOk,
                 result.end_to_end_nanos);
  return std::move(result);
}

asbase::Status AsVisor::FailInvocation(Invocation& inv,
                                       asbase::Status status) {
  inv.reg->failures->Add(1);
  asobs::FlightOutcome outcome = asobs::FlightOutcome::kError;
  if (status.code() == asbase::ErrorCode::kDeadlineExceeded) {
    inv.reg->timeouts->Add(1);
    outcome = asobs::FlightOutcome::kTimeout;
  }
  // Close the span tree so the retained trace is complete.
  inv.root.SetArg("outcome", asobs::FlightOutcomeName(outcome));
  AccountOutcome(inv.reg->spec.name, inv.trace, outcome,
                 EndFlight(inv, outcome));
  return status;
}

int64_t AsVisor::EndFlight(Invocation& inv, asobs::FlightOutcome outcome) {
  inv.root.End();
  inv.record.outcome = outcome;
  inv.record.end_nanos = asbase::MonoNanos();
  inv.record.total_nanos = inv.record.end_nanos - inv.record.start_nanos;
  EmitFlight(inv.reg->flight_id, inv.record);
  return inv.record.total_nanos;
}

void AsVisor::MaybeCaptureSnapshot(const Registration& reg, Wfd& wfd) {
  SnapshotCell& cell = *reg.boot.snapshot;
  if (!cell.TryBeginCapture()) {
    return;  // lost the race to a concurrent invocation, or already done
  }
  auto snapshot_or = wfd.CaptureSnapshot(reg.snapshot_max_bytes);
  if (snapshot_or.ok()) {
    cell.EndCapture(std::move(*snapshot_or));
    reg.snapshot_creates->Add(1);
  } else {
    // Capture failure marks the cell dead: a workflow whose state cannot
    // snapshot (ramfs, external disk, oversized image, pinned buffers)
    // should not retry — and pay for — the capture on every invocation.
    AS_LOG(kInfo) << "snapshot capture declined ("
                  << snapshot_or.status().ToString()
                  << "); workflow will keep full-boot cold starts";
    cell.EndCapture(nullptr);
  }
}

asbase::Result<InvokeResult> AsVisor::InvokeFromConfig(
    const std::string& config_json, const asbase::Json& params) {
  AS_ASSIGN_OR_RETURN(asbase::Json config, asbase::Json::Parse(config_json));
  AS_RETURN_IF_ERROR(RegisterWorkflowFromJson(config));
  return Invoke(config["name"].as_string(), params);
}

// ------------------------------- flight recorder / tail retention / SLO

void AsVisor::EmitFlight(uint32_t workflow_id,
                         const asobs::FlightRecord& record) {
  if (!flight_->enabled()) {
    return;
  }
  if (flight_->Record(workflow_id, record)) {
    flight_records_->Add(1);
  } else {
    flight_dropped_->Add(1);
  }
}

void AsVisor::AccountOutcome(const std::string& workflow_name,
                             std::shared_ptr<const asobs::Trace> trace,
                             asobs::FlightOutcome outcome,
                             int64_t total_nanos) {
  const int64_t now = asbase::MonoNanos();
  std::optional<BlackBoxRequest> blackbox;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow_name);
    if (it == workflows_.end()) {
      return;  // unregistered while the invocation ran
    }
    Entry& entry = it->second;

    // Tail-based trace retention: keep the full span tree only for
    // invocations worth debugging — failures, timeouts, or runs over the
    // latency threshold. threshold 0 retains everything.
    const int64_t threshold_ms = serving_.trace_threshold_ms;
    if (trace != nullptr && serving_.trace_ring > 0) {
      const bool retain = outcome != asobs::FlightOutcome::kOk ||
                          threshold_ms == 0 ||
                          total_nanos > threshold_ms * 1'000'000;
      if (retain) {
        entry.traces.push_back(std::move(trace));
        while (entry.traces.size() > serving_.trace_ring) {
          entry.traces.pop_front();
        }
        traces_retained_->Add(1);
      }
    }

    // SLO accounting + burn gauges; on a trigger, collect the queue/pool
    // snapshot under the lock and write the black box after it drops.
    if (entry.slo != nullptr) {
      const int64_t latency_ms = entry.slo->options().latency_objective_ms;
      const bool good =
          outcome == asobs::FlightOutcome::kOk &&
          (latency_ms == 0 || total_nanos <= latency_ms * 1'000'000);
      const bool timeout = outcome == asobs::FlightOutcome::kTimeout;
      const asobs::SloTracker::Verdict verdict =
          entry.slo->Record(good, timeout, now);
      entry.burn_fast->Set(BurnMilli(verdict.fast_burn));
      entry.burn_slow->Set(BurnMilli(verdict.slow_burn));
      if (verdict.trigger) {
        BlackBoxRequest request;
        request.reason = verdict.reason;
        request.workflow = workflow_name;
        request.fast_burn = verdict.fast_burn;
        request.slow_burn = verdict.slow_burn;
        asbase::Json queues{asbase::JsonArray{}};
        for (const auto& [name, other] : workflows_) {
          asbase::Json row;
          row.Set("workflow", name);
          row.Set("inflight", static_cast<int64_t>(other.inflight));
          row.Set("queued", static_cast<int64_t>(other.waiters.size()));
          row.Set("service_ewma_nanos",
                  static_cast<int64_t>(other.service_ewma_nanos));
          if (other.reg->pool != nullptr) {
            // Lock order: mutex_ then the pool mutex — the pool never
            // calls back into the visor.
            row.Set("warm_wfds",
                    static_cast<int64_t>(other.reg->pool->warm_count()));
            row.Set("pool_target_warm",
                    static_cast<int64_t>(other.reg->pool->target_warm()));
          }
          queues.Append(std::move(row));
        }
        request.queues = std::move(queues);
        blackbox = std::move(request);
      }
    }
  }
  if (blackbox.has_value()) {
    WriteBlackBox(*blackbox);
  }
}

void AsVisor::WriteBlackBox(const BlackBoxRequest& request) {
  const uint64_t seq = blackbox_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      blackbox_dir_ + "/blackbox_shard" +
      std::to_string(std::max(shard_.index, 0)) + "_" +
      std::to_string(asbase::WallMicros()) + "_" + std::to_string(seq) +
      ".json";
  asbase::Json doc;
  doc.Set("reason", request.reason);
  doc.Set("workflow", request.workflow);
  doc.Set("shard", static_cast<int64_t>(shard_.index));
  doc.Set("wall_micros", asbase::WallMicros());
  doc.Set("fast_burn_milli", BurnMilli(request.fast_burn));
  doc.Set("slow_burn_milli", BurnMilli(request.slow_burn));
  doc.Set("queues", request.queues);
  doc.Set("flight", asobs::FlightReportJson(flight_->Snapshot()));
  // Recent control-plane actions: a reslice or migration just before the
  // trigger is usually the first thing the investigation needs to see.
  doc.Set("rebalance_events", asobs::RebalanceLog::Global().ToJson());
  std::ofstream out(path);
  if (!out) {
    AS_LOG(kWarn) << "black box write failed: cannot open " << path;
    return;
  }
  out << doc.Dump(2) << "\n";
  out.close();
  blackbox_counter_->Add(1);
  AS_LOG(kWarn) << "SLO trigger (" << request.reason << ") for '"
                << request.workflow << "': black box written to " << path;
}

// ------------------------------------------------------ admission control

void AsVisor::ReleaseAdmission(const std::string& workflow_name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inflight_global_ > 0) {
      --inflight_global_;
    }
    auto it = workflows_.find(workflow_name);
    if (it != workflows_.end() && it->second.inflight > 0) {
      --it->second.inflight;
    }
  }
  inflight_gauge_->Add(-1);
  // A slot freed: the head of this workflow's queue (if any) can admit.
  admission_cv_.notify_all();
}

int64_t AsVisor::PredictedWaitNanosLocked(const Entry& entry) const {
  if (entry.service_ewma_nanos <= 0) {
    return 0;  // no sample yet — optimistically admit
  }
  // A new arrival runs after everyone already queued; with max_concurrency
  // servers draining the queue, expected wait ≈ position × service / c.
  const double position = static_cast<double>(entry.waiters.size()) + 1.0;
  const double concurrency =
      static_cast<double>(std::max(entry.reg->options.max_concurrency, 1));
  return static_cast<int64_t>(position * entry.service_ewma_nanos /
                              concurrency);
}

double AsVisor::MinGrantRoundsLocked() const {
  double min_rounds = -1;
  for (const auto& [name, entry] : workflows_) {
    if (!entry.eligible()) {
      continue;
    }
    const double rounds =
        entry.deficit >= 1.0
            ? 0.0
            : std::ceil((1.0 - entry.deficit) / entry.reg->options.weight);
    if (min_rounds < 0 || rounds < min_rounds) {
      min_rounds = rounds;
    }
  }
  return min_rounds;
}

std::string AsVisor::NextWeightedWorkflowLocked() const {
  const double min_rounds = MinGrantRoundsLocked();
  if (min_rounds < 0) {
    return "";  // nobody eligible is queued
  }
  // After advancing everyone by min_rounds, the highest deficit wins; ties
  // go to the smallest name (map order + strict >).
  std::string winner;
  double best = 0;
  for (const auto& [name, entry] : workflows_) {
    if (!entry.eligible()) {
      continue;
    }
    const double credited =
        entry.deficit + min_rounds * entry.reg->options.weight;
    if (credited >= 1.0 - 1e-9 && (winner.empty() || credited > best)) {
      winner = name;
      best = credited;
    }
  }
  return winner;
}

void AsVisor::ChargeGrantLocked(const std::string& winner) {
  const double min_rounds = MinGrantRoundsLocked();
  if (min_rounds < 0) {
    return;
  }
  for (auto& [name, entry] : workflows_) {
    if (!entry.eligible()) {
      continue;
    }
    const double weight = entry.reg->options.weight;
    // Cap banked credit so a long-uncontested workflow cannot starve
    // everyone for many grants once contention returns.
    entry.deficit = std::min(entry.deficit + min_rounds * weight,
                             std::max(1.0, weight) + weight);
  }
  auto it = workflows_.find(winner);
  if (it != workflows_.end()) {
    it->second.deficit -= 1.0;
  }
}

asbase::Status AsVisor::AdmitBlocking(const std::string& workflow_name,
                                      int64_t budget_ms_override,
                                      int64_t* queue_wait_nanos,
                                      int64_t* predicted_wait_nanos,
                                      bool* migrated) {
  *queue_wait_nanos = 0;
  *predicted_wait_nanos = 0;
  *migrated = false;
  uint64_t ticket = 0;
  const int64_t enqueued_at = asbase::MonoNanos();
  asobs::Gauge* queued_gauge = nullptr;
  asobs::LatencyHistogram* queue_wait_hist = nullptr;
  // Live iff `workflow_name` has a fresh migration tombstone (call under
  // mutex_): the workflow is not gone, it moved shards.
  auto migrated_away = [&]() {
    auto tomb = migrated_out_.find(workflow_name);
    return tomb != migrated_out_.end() &&
           asbase::MonoNanos() - tomb->second <= kMigrationTombstoneNanos;
  };
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow_name);
    if (it == workflows_.end()) {
      if (migrated_away()) {
        // Raced the route flip: the workflow lives on another shard now.
        *migrated = true;
        return asbase::Unavailable("workflow '" + workflow_name +
                                   "' migrated to another shard");
      }
      return asbase::NotFound("no workflow named '" + workflow_name + "'");
    }
    if (draining_) {
      return asbase::Unavailable("watchdog draining");
    }
    Entry& entry = it->second;
    // Same registry series even if the entry is replaced while we wait (the
    // registry dedupes by name+labels), so the gauge pointer stays valid.
    queued_gauge = entry.queued_gauge;
    queue_wait_hist = entry.queue_wait_hist;
    const bool slot_free =
        entry.inflight < entry.reg->options.max_concurrency &&
        inflight_global_ < serving_.max_inflight;
    // Fast path: admit only when no other workflow has a runnable waiter —
    // a fresh arrival must not leapfrog a co-tenant already queued for a
    // global slot.
    if (slot_free && entry.waiters.empty() &&
        NextWeightedWorkflowLocked().empty()) {
      ++inflight_global_;
      ++entry.inflight;
      inflight_gauge_->Add(1);
      return asbase::OkStatus();
    }
    // Saturated. Queue only if allowed, not full, and the predicted wait
    // fits the budget; otherwise reject and report the prediction so the
    // caller can compute Retry-After.
    *predicted_wait_nanos = PredictedWaitNanosLocked(entry);
    if (entry.reg->options.queue_capacity == 0) {
      return asbase::ResourceExhausted(
          "workflow '" + workflow_name + "' at max_concurrency (" +
          std::to_string(entry.reg->options.max_concurrency) + ")");
    }
    if (entry.waiters.size() >= entry.reg->options.queue_capacity) {
      return asbase::ResourceExhausted(
          "workflow '" + workflow_name + "' admission queue full (" +
          std::to_string(entry.reg->options.queue_capacity) + ")");
    }
    const int64_t budget_ms = std::min(budget_ms_override >= 0
                                           ? budget_ms_override
                                           : entry.reg->options.queueing_budget_ms,
                                       kMaxQueueBudgetMs);
    if (*predicted_wait_nanos > budget_ms * 1'000'000) {
      return asbase::ResourceExhausted(
          "predicted queue wait " +
          std::to_string(*predicted_wait_nanos / 1'000'000) +
          "ms exceeds budget " + std::to_string(budget_ms) + "ms for '" +
          workflow_name + "'");
    }
    ticket = entry.next_ticket++;
    entry.waiters.push_back(ticket);
    queued_gauge->Add(1);

    // Wait for our turn: front of the queue AND a free slot. Re-find the
    // entry each wake — a re-registration replaces it (our ticket vanishes
    // with the old Entry) and draining aborts the wait.
    admission_cv_.wait(lock, [&] {
      if (draining_) {
        return true;
      }
      auto found = workflows_.find(workflow_name);
      if (found == workflows_.end() || found->second.waiters.empty() ||
          std::find(found->second.waiters.begin(),
                    found->second.waiters.end(),
                    ticket) == found->second.waiters.end()) {
        return true;  // entry replaced: give up
      }
      // Front of our workflow's queue, slots free, and it is our
      // workflow's deficit-round-robin turn for the global slot.
      return found->second.waiters.front() == ticket &&
             found->second.inflight <
                 found->second.reg->options.max_concurrency &&
             inflight_global_ < serving_.max_inflight &&
             NextWeightedWorkflowLocked() == workflow_name;
    });
    queued_gauge->Add(-1);
    *queue_wait_nanos = asbase::MonoNanos() - enqueued_at;

    auto found = workflows_.find(workflow_name);
    bool granted = false;
    if (found != workflows_.end()) {
      auto& waiters = found->second.waiters;
      auto pos = std::find(waiters.begin(), waiters.end(), ticket);
      if (pos != waiters.end()) {
        granted = pos == waiters.begin();
        if (granted && !draining_) {
          // DRR bookkeeping happens while our ticket is still queued so the
          // eligible set matches what the selector saw when it picked us.
          ChargeGrantLocked(workflow_name);
        }
        // Remove the ticket on every exit path: a stale ticket abandoned by
        // a drained waiter would keep this workflow "eligible" forever and
        // wedge the round-robin for every co-tenant.
        waiters.erase(pos);
        if (waiters.empty()) {
          // Credit is only meaningful under contention; a drained queue
          // starts from scratch next time.
          found->second.deficit = 0;
        }
      }
    }
    if (draining_) {
      // Also unblock whoever is now at the front.
      lock.unlock();
      admission_cv_.notify_all();
      return asbase::Unavailable("watchdog draining");
    }
    if (!granted) {
      if (migrated_away()) {
        // Queue handoff: our ticket vanished because the workflow migrated
        // mid-wait. *queue_wait_nanos already holds the wait paid here; the
        // router carries it to the new shard so the total stays honest.
        *migrated = true;
        return asbase::Unavailable("workflow '" + workflow_name +
                                   "' migrated while queued");
      }
      return asbase::NotFound("workflow '" + workflow_name +
                              "' re-registered while queued");
    }
    ++inflight_global_;
    ++found->second.inflight;
  }
  inflight_gauge_->Add(1);
  queue_wait_hist->Record(*queue_wait_nanos);
  // Our pop may have moved a new waiter to the front.
  admission_cv_.notify_all();
  return asbase::OkStatus();
}

// ---------------------------------------------------------------- serving

asbase::Status AsVisor::StartServing(const ServingOptions& serving) {
  if (serving.max_inflight == 0) {
    return asbase::InvalidArgument("max_inflight must be >= 1");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!draining_) {
    return asbase::FailedPrecondition("serving already started");
  }
  serving_ = serving;
  draining_ = false;
  return asbase::OkStatus();
}

void AsVisor::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  admission_cv_.notify_all();
}

void AsVisor::StopServing() {
  BeginDrain();
  std::unique_lock<std::mutex> lock(mutex_);
  admission_cv_.wait(lock, [&] { return inflight_global_ == 0; });
}

void AsVisor::ShutdownPools() {
  // Collect under the lock, join outside it (Shutdown joins the warmer
  // thread). Map order makes the teardown sequence deterministic.
  std::vector<std::shared_ptr<WfdPool>> pools;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, entry] : workflows_) {
      if (entry.reg->pool != nullptr) {
        pools.push_back(entry.reg->pool);
      }
    }
  }
  for (const auto& pool : pools) {
    pool->Shutdown();
  }
}

void AsVisor::SetMaxInflight(size_t max_inflight) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    serving_.max_inflight = std::max<size_t>(1, max_inflight);
  }
  // A raised cap may make queued waiters runnable immediately.
  admission_cv_.notify_all();
}

size_t AsVisor::max_inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serving_.max_inflight;
}

bool AsVisor::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

size_t AsVisor::trace_ring_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serving_.trace_ring;
}

int64_t AsVisor::trace_threshold_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serving_.trace_threshold_ms;
}

std::vector<std::string> AsVisor::WorkflowNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  names.reserve(workflows_.size());
  for (const auto& [name, entry] : workflows_) {
    names.push_back(name);
  }
  return names;
}

AsVisor::ServeResult AsVisor::Serve(const std::string& workflow_name,
                                    const asbase::Json& params,
                                    int64_t budget_ms,
                                    int64_t carried_queue_wait_nanos) {
  // Admission decisions (rejections, drain warnings) carry the shard +
  // workflow; Invoke re-establishes the same context for the run.
  asbase::ScopedLogContext log_context(shard_.index, workflow_name);

  // Admission control: admit, queue (when the workflow allows it and the
  // predicted wait fits this request's budget), or reject with a
  // Retry-After computed from that prediction.
  int64_t queue_wait_nanos = 0;
  int64_t predicted_wait_nanos = 0;
  bool migrated = false;
  asbase::Status admitted = AdmitBlocking(workflow_name, budget_ms,
                                          &queue_wait_nanos,
                                          &predicted_wait_nanos, &migrated);
  queue_wait_nanos += carried_queue_wait_nanos;
  if (!admitted.ok()) {
    if (migrated) {
      // The workflow moved shards (possibly while this request sat in the
      // admission queue): the caller re-serves on the new owner, handing
      // it the wait already paid.
      return {Admission::kMigrated, admitted, 0, queue_wait_nanos};
    }
    if (admitted.code() == asbase::ErrorCode::kNotFound) {
      return {Admission::kNotFound, admitted, 0, queue_wait_nanos};
    }
    if (admitted.code() == asbase::ErrorCode::kUnavailable) {
      return {Admission::kDraining, admitted, 0, queue_wait_nanos};
    }
    int retry_after_fallback = 1;
    uint32_t flight_id = 0;
    asobs::Counter* rejections = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      retry_after_fallback = serving_.retry_after_seconds;
      auto it = workflows_.find(workflow_name);
      if (it != workflows_.end()) {
        flight_id = it->second.reg->flight_id;
        rejections = it->second.rejections;
      }
    }
    if (rejections != nullptr) {
      rejections->Add(1);
    } else {
      asobs::Registry::Global()
          .GetCounter("alloy_visor_rejections_total",
                      WorkflowLabels(workflow_name))
          .Add(1);
    }
    // Rejections leave a flight record too — a 429 storm is exactly the
    // kind of incident the black box must explain. queue_wait carries the
    // predicted wait that drove the rejection.
    asobs::FlightRecord rejected;
    rejected.shard = shard_.index;
    rejected.outcome = asobs::FlightOutcome::kRejected;
    rejected.start_nanos = asbase::MonoNanos();
    rejected.end_nanos = rejected.start_nanos;
    rejected.queue_wait_nanos = predicted_wait_nanos;
    EmitFlight(flight_id, rejected);
    AccountOutcome(workflow_name, nullptr, asobs::FlightOutcome::kRejected, 0);
    // Tell the client when a retry is predicted to succeed; fall back to
    // the static knob before any service-time sample exists.
    const int retry_after =
        predicted_wait_nanos > 0
            ? std::max<int>(
                  1, static_cast<int>(
                         std::ceil(static_cast<double>(predicted_wait_nanos) /
                                   1e9)))
            : retry_after_fallback;
    return {Admission::kRejected, admitted, retry_after, queue_wait_nanos};
  }

  // Admitted: run here, on the admitting thread, so the admission slot is
  // the only execution bound and no hand-off wait goes unrecorded.
  InvokeOptions invoke_options;
  invoke_options.queue_wait_nanos = queue_wait_nanos;
  ServeResult served{Admission::kAdmitted,
                     Invoke(workflow_name, params, invoke_options), 0,
                     queue_wait_nanos};
  ReleaseAdmission(workflow_name);
  return served;
}

asbase::Result<asbase::Json> AsVisor::ServeTrace(
    const std::string& workflow) const {
  std::deque<std::shared_ptr<const asobs::Trace>> traces;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow);
    if (it == workflows_.end()) {
      return asbase::NotFound("no workflow named '" + workflow + "'");
    }
    traces = it->second.traces;
  }
  // One Chrome "process" per retained invocation, newest = highest pid.
  asbase::Json events{asbase::JsonArray{}};
  int pid = 1;
  for (const auto& trace : traces) {
    trace->AppendChromeEvents(events.array(), pid++);
  }
  asbase::Json doc;
  doc.Set("displayTimeUnit", "ms");
  doc.Set("traceEvents", std::move(events));
  return doc;
}

asbase::Json AsVisor::ServeFlight(const std::string& workflow,
                                  int64_t since_nanos) const {
  asbase::Json doc =
      asobs::FlightReportJson(flight_->Snapshot(workflow, since_nanos));
  if (!workflow.empty()) {
    doc.Set("workflow", workflow);
  }
  doc.Set("recorded", static_cast<int64_t>(flight_->recorded()));
  doc.Set("dropped", static_cast<int64_t>(flight_->dropped()));
  doc.Set("capacity", static_cast<int64_t>(flight_->capacity()));
  return doc;
}

asbase::Json AsVisor::ServeLatency(const std::string& workflow) const {
  asbase::Json doc =
      asobs::LatencyAttributionJson(flight_->Snapshot(workflow));
  if (!workflow.empty()) {
    doc.Set("workflow", workflow);
  }
  return doc;
}

asbase::Result<asbase::Histogram> AsVisor::LatencyHistogram(
    const std::string& workflow_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = workflows_.find(workflow_name);
  if (it == workflows_.end()) {
    return asbase::NotFound("no workflow named '" + workflow_name + "'");
  }
  return it->second.latency;
}

asbase::Result<size_t> AsVisor::WarmWfdCount(
    const std::string& workflow_name) const {
  AS_ASSIGN_OR_RETURN(std::shared_ptr<const Registration> reg,
                      Lookup(workflow_name));
  return reg->pool->warm_count();
}

}  // namespace alloy
