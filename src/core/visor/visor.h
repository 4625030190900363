// as-visor: the global runtime layer (§3.3).
//
// Owns workflow definitions, instantiates (or leases from the warm pool) a
// WFD per invocation, orchestrates the run, returns the WFD to the pool or
// destroys it (§3.2). A CLI-style entry (`InvokeFromConfig`) executes
// workflows straight from JSON configurations (§7.1). The watchdog — the
// HTTP endpoint through which external events trigger workflows — is
// AsVisorRouter's; an AsVisor is one HTTP-free shard behind it.
//
// Serving layer (DESIGN.md §8): `Serve` admits an invocation and runs it on
// the calling thread, gated by per-workflow `max_concurrency` and the
// shard's in-flight cap. A saturated workflow may absorb short bursts
// through a bounded FIFO admission queue: a request queues only when its
// *predicted* wait (queue position × an EWMA of recent service time /
// max_concurrency) fits its queueing budget; otherwise it is rejected, with
// a Retry-After computed from that prediction.
// Each invocation may carry a deadline (`timeout_ms`) enforced cooperatively
// by the orchestrator; an expired run fails with kDeadlineExceeded (HTTP
// 504). Registration also pre-warms the workflow's WFD pool (WfdPool
// warmer) so a traffic spike pays at most the cold starts already in
// flight when it lands.

#ifndef SRC_CORE_VISOR_VISOR_H_
#define SRC_CORE_VISOR_VISOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/core/visor/orchestrator.h"
#include "src/core/visor/wfd_pool.h"
#include "src/core/wfd_snapshot.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace alloy {

struct InvokeResult {
  // Cold start: WFD instantiation + LibOS modules loaded during the run.
  // A warm start pays neither (wfd_create_nanos == 0) unless the run
  // touched a module no earlier invocation had loaded.
  int64_t cold_start_nanos = 0;
  int64_t wfd_create_nanos = 0;
  int64_t module_load_nanos = 0;
  // True when the invocation ran on a pooled warm WFD.
  bool warm_start = false;
  // True when the pool missed but the WFD was clone-booted from a snapshot
  // template (wfd_create_nanos is then the clone time, O(µs)).
  bool clone_start = false;
  RunStats run;
  // End-to-end: invocation receipt to workflow completion.
  int64_t end_to_end_nanos = 0;
  std::vector<ModuleKind> modules_loaded;
  size_t resident_bytes = 0;
  // Spans recorded during this invocation (root "invoke" span + children).
  std::shared_ptr<const asobs::Trace> trace;
  // Flat {"workflow", "spans":[{"name","category","parent","dur_nanos"}]}.
  asbase::Json span_summary;
};

class AsVisor {
 public:
  struct WorkflowOptions {
    WfdOptions wfd;
    // Warm WFDs retained for this workflow; 0 = cold-start every invocation.
    size_t pool_size = 2;
    // Pool pre-warm floor (clamped to pool_size): RegisterWorkflow
    // asynchronously boots this many WFDs, and the pool's warmer refills on
    // drain (sized by an arrival-rate EWMA). 0 keeps the pool reactive.
    size_t min_warm = 0;
    // Evict all parked WFDs after this long without traffic (the pool of a
    // quiet workflow shrinks to zero, releasing its heap + disk). 0 = never.
    int64_t idle_ttl_ms = 0;
    // Concurrent watchdog invocations admitted for this workflow; beyond
    // this requests queue (if queue_capacity > 0 and the predicted wait
    // fits the budget) or get 429. (Direct Invoke() calls are not gated —
    // a library caller owns its own concurrency.)
    int max_concurrency = 4;
    // Bounded FIFO admission queue depth for saturated arrivals. 0 =
    // pure reject-at-cap (the pre-queue behavior).
    size_t queue_capacity = 0;
    // Default per-request queueing budget: a request queues only if its
    // predicted wait fits; a client may override per request via the
    // `x-queue-budget-ms` header.
    int64_t queueing_budget_ms = 250;
    // Per-invocation deadline in milliseconds; 0 = none.
    int64_t timeout_ms = 0;
    // Share of admission slots under contention: queued workflows are
    // granted slots deficit-round-robin, so a weight-3 workflow receives
    // ~3 grants for every grant a weight-1 co-tenant gets. Values < 1e-6
    // are treated as 1.
    double weight = 1.0;
    // Shard pin override for AsVisorRouter: >= 0 forces the workflow onto
    // that shard (modulo shard count) instead of the consistent-hash
    // placement. Ignored by a standalone AsVisor.
    int pin_shard = -1;
    // SLO (DESIGN.md §11): fraction of invocations that must be good.
    // <= 0 disables SLO tracking for this workflow (the default — no burn
    // gauges, no black boxes).
    double slo_objective = 0;
    // Latency objective: an invocation slower than this counts against the
    // error budget even when it succeeds. 0 = outcome-only SLO.
    int64_t slo_latency_ms = 0;
  };

  // Default trace ring depth per workflow served by /trace.
  static constexpr size_t kTraceRing = 8;

  // Watchdog-wide serving knobs (admission control).
  struct ServingOptions {
    // Global in-flight invocation cap across all workflows — the one
    // execution bound: every admitted invocation runs on the thread that
    // admitted it.
    size_t max_inflight = 32;
    // Retry-After fallback (seconds) on rejections when no service-time
    // EWMA exists yet; once it does, Retry-After is computed from the
    // predicted wait instead.
    int retry_after_seconds = 1;
    // Tail-based trace retention (DESIGN.md §11). `trace_ring` is the
    // per-workflow retained-trace depth; 0 retains none.
    // `trace_threshold_ms` retains a full span tree only for invocations
    // that fail, time out, or run longer than the threshold; 0 = retain
    // every trace.
    size_t trace_ring = kTraceRing;
    int64_t trace_threshold_ms = 0;
  };

  // Serving-path context for one invocation (watchdog admission).
  struct InvokeOptions {
    // Time this request spent in the admission queue before Invoke; recorded
    // as a `queue_wait` span and excluded from the service-time EWMA.
    int64_t queue_wait_nanos = 0;
  };

  // Identity of this visor inside an AsVisorRouter. A standalone visor
  // (index -1) behaves exactly as before sharding: unlabelled metrics.
  struct ShardIdentity {
    // Shard number, stamped onto every metric series this visor writes as
    // `alloy_visor_shard="<index>"`. -1 = unsharded.
    int index = -1;
  };

  AsVisor() : AsVisor(ShardIdentity{}) {}
  explicit AsVisor(ShardIdentity shard);
  ~AsVisor();

  AsVisor(const AsVisor&) = delete;
  AsVisor& operator=(const AsVisor&) = delete;

  // Registers a workflow under spec.name; overwrites an existing entry
  // (clearing any warm WFDs built with the previous options).
  void RegisterWorkflow(const WorkflowSpec& spec);
  void RegisterWorkflow(const WorkflowSpec& spec, WorkflowOptions options);

  // Removes a workflow: queued admissions for it give up (404), its pool's
  // warmer stops and its warm WFDs are destroyed. Returns false when no
  // such workflow exists. The router uses this to migrate a pinned workflow
  // between shards without a double registration ever being visible.
  bool UnregisterWorkflow(const std::string& workflow_name);

  // ---- live migration (elastic shard mesh, DESIGN.md §12) ----
  // A workflow's registration as this shard holds it, copyable to another
  // shard.
  struct WorkflowRegistration {
    WorkflowSpec spec;
    WorkflowOptions options;
  };
  asbase::Result<WorkflowRegistration> GetRegistration(
      const std::string& workflow_name) const;

  // Migrate-out: removes the entry like UnregisterWorkflow, but leaves a
  // short-lived tombstone so queued admissions (and requests racing the
  // route flip) unwind as *migrated* rather than failed — the router
  // re-queues them on the new owner instead of answering 404/503. Returns
  // the old pool (already detached; the caller takes its warm WFDs via
  // TakeWarmForHandoff and then Shutdowns it), or nullptr when the
  // workflow was not registered here.
  std::shared_ptr<WfdPool> MigrateOut(const std::string& workflow_name);

  // Receiving side of the warm-pool handoff: parks the WFDs into
  // `workflow_name`'s pool (evicting past capacity). A WFD's stage workers
  // sit on cores placed from its own round-robin home core, not from its
  // shard, so a handed-off WFD serves here unchanged; rebooting it would be
  // the cold start migration exists to avoid.
  void AdoptWarmWfds(const std::string& workflow_name,
                     std::vector<std::unique_ptr<Wfd>> wfds);

  // Per-shard load snapshot — the rebalancer's input signal (sampled, so
  // cheap: one mutex hold, no per-invocation cost).
  struct WorkflowLoad {
    std::string name;
    int inflight = 0;
    size_t queued = 0;
    double service_ewma_nanos = 0;
    bool pinned = false;  // pin_shard >= 0: the rebalancer must not move it
  };
  struct ShardLoad {
    size_t inflight = 0;      // admitted invocations running now
    size_t queued = 0;        // tickets parked across all admission queues
    size_t max_inflight = 0;  // this shard's current budget slice
    std::vector<WorkflowLoad> workflows;
  };
  ShardLoad LoadSnapshot() const;

  // Parses a full JSON configuration: workflow spec plus an optional
  // "options" object. WFD keys: "ramfs", "load_all", "reference_passing",
  // "inter_function_isolation" (booleans), "heap_mb", "disk_mb" (0..2^20).
  // WorkflowOptions keys: "pool_size", "min_warm", "idle_ttl_ms",
  // "queue_capacity", "queueing_budget_ms", "timeout_ms", "slo_latency_ms"
  // (>= 0), "max_concurrency" (>= 1), "pin_shard" (>= -1), "weight" (> 0),
  // "slo_objective" (0..1). An out-of-range value is InvalidArgument.
  static asbase::Result<WorkflowRegistration> ParseWorkflowJson(
      const asbase::Json& config);
  // ParseWorkflowJson + RegisterWorkflow; registers nothing on error.
  asbase::Status RegisterWorkflowFromJson(const asbase::Json& config);

  // One invocation: lease a warm WFD (or cold-start one), run, re-pool on
  // success / destroy on failure. Enforces the workflow's timeout_ms.
  asbase::Result<InvokeResult> Invoke(const std::string& workflow_name,
                                      const asbase::Json& params);
  asbase::Result<InvokeResult> Invoke(const std::string& workflow_name,
                                      const asbase::Json& params,
                                      const InvokeOptions& invoke_options);

  // One-shot CLI gateway: parse config, register, invoke once.
  asbase::Result<InvokeResult> InvokeFromConfig(const std::string& config_json,
                                                const asbase::Json& params);

  // ---- serving lifecycle (the router owns the HTTP server) ----
  // Opens admission. Until the first call every Serve answers kDraining.
  asbase::Status StartServing(const ServingOptions& serving);
  // Non-blocking: flips draining so every queued admission unwinds as
  // kDraining and new arrivals are turned away. Safe to call on all shards
  // before any join.
  void BeginDrain();
  // BeginDrain, then blocks until every admitted invocation has released
  // its slot.
  void StopServing();
  // Shuts down every workflow's pool warmer and destroys parked WFDs, in
  // workflow-name order (deterministic thread joins on teardown).
  void ShutdownPools();

  // The serving path: admit, Invoke on the calling thread, release.
  enum class Admission {
    kAdmitted,
    kRejected,
    kMigrated,
    kNotFound,
    kDraining,
  };
  struct ServeResult {
    Admission admission;
    // Invoke's result when admitted; otherwise the admission status.
    asbase::Result<InvokeResult> invoked;
    // kRejected: seconds until a retry is predicted to be admitted.
    int retry_after_seconds = 0;
    // Queue wait paid so far, the carried wait included. For kMigrated it
    // is what the next shard must be handed.
    int64_t queue_wait_nanos = 0;
  };
  // `budget_ms` is the request's queueing budget (< 0: the workflow's
  // default). `carried_queue_wait_nanos` is queue time already spent on a
  // shard the workflow migrated away from mid-queue; it is added to this
  // shard's own wait so the trace and flight record show the true total.
  ServeResult Serve(const std::string& workflow_name,
                    const asbase::Json& params, int64_t budget_ms,
                    int64_t carried_queue_wait_nanos);

  // Budgets past this many milliseconds are clamped (the admission check
  // compares in nanoseconds).
  static constexpr int64_t kMaxQueueBudgetMs = INT64_MAX / 1'000'000;

  // Chrome trace JSON of the workflow's retained invocations (NotFound for
  // an unknown workflow).
  asbase::Result<asbase::Json> ServeTrace(const std::string& workflow) const;
  // Flight records (every workflow when `workflow` is empty) that ended
  // after `since_nanos` (a MonoNanos cursor).
  asbase::Json ServeFlight(const std::string& workflow,
                           int64_t since_nanos) const;
  // p50/p95/p99 phase attribution over the flight ring: which phase owns
  // the tail.
  asbase::Json ServeLatency(const std::string& workflow) const;

  // True until StartServing and from BeginDrain/StopServing until the next
  // StartServing — the per-shard /readyz signal the router aggregates.
  bool draining() const;

  // This shard's flight recorder (the router aggregates across shards).
  const asobs::FlightRecorder& flight() const { return *flight_; }

  // Effective trace-retention knobs (tests, ops).
  size_t trace_ring_depth() const;
  int64_t trace_threshold_ms() const;

  // Rebalance hook: replaces this shard's slice of the global in-flight
  // budget (clamped to >= 1) and wakes queued admissions to re-evaluate.
  void SetMaxInflight(size_t max_inflight);
  size_t max_inflight() const;

  std::vector<std::string> WorkflowNames() const;

  // Per-workflow end-to-end latency samples (P99 analysis, Fig 17a).
  asbase::Result<asbase::Histogram> LatencyHistogram(
      const std::string& workflow_name) const;

  // Warm WFDs currently parked for a workflow (tests, ops introspection).
  asbase::Result<size_t> WarmWfdCount(const std::string& workflow_name) const;

 private:
  // How a registration's WFDs boot (DESIGN.md §14). The pool warmer's
  // factory holds a copy, which may outlive the registration.
  struct BootPlan {
    WfdOptions wfd;
    // Stage workers a full boot pre-spawns (Orchestrator::MaxStageFanout);
    // a clone already carries the template's (WfdSnapshot::stage_workers).
    size_t stage_workers = 0;
    // Template slot: filled by the first successful post-invoke reset,
    // dropped on re-registration or reset failure.
    std::shared_ptr<SnapshotCell> snapshot;
    asobs::Counter* clones = nullptr;
    asobs::Counter* fallbacks = nullptr;
    asobs::LatencyHistogram* clone_hist = nullptr;
  };

  // Everything Invoke reads about a workflow, immutable once registered:
  // Invoke copies one pointer under mutex_ and keeps using it while a
  // concurrent re-registration swaps in a fresh one.
  struct Registration {
    WorkflowSpec spec;
    WorkflowOptions options;
    std::shared_ptr<WfdPool> pool;
    BootPlan boot;
    // Cached registry series (registry-owned, immortal) so the invoke and
    // admission hot paths never take the global registry mutex — with N
    // shards that mutex would be the one lock every shard still shares.
    asobs::Counter* invocations = nullptr;
    asobs::Counter* failures = nullptr;
    asobs::Counter* timeouts = nullptr;
    asobs::LatencyHistogram* invoke_hist = nullptr;
    asobs::Counter* snapshot_creates = nullptr;
    asobs::Counter* snapshot_invalidations = nullptr;
    // Flight-recorder workflow id, interned at registration so the emit
    // path never touches the intern mutex.
    uint32_t flight_id = 0;
    size_t snapshot_max_bytes = 0;  // ALLOY_SNAPSHOT_MAX_BYTES
  };

  struct Entry {
    std::shared_ptr<const Registration> reg;
    // Watchdog invocations currently running this workflow (admission).
    int inflight = 0;
    // FIFO admission queue: tickets of requests waiting for a concurrency
    // slot, front = next to run. Bounded by options.queue_capacity.
    std::deque<uint64_t> waiters;
    uint64_t next_ticket = 1;
    // Deficit-round-robin credit toward the next admission grant: each
    // contested grant adds `weight` per round to every workflow with a
    // runnable queue head and costs the winner 1. Reset when the queue
    // empties.
    double deficit = 0;
    // EWMA of recent service time (Invoke wall time, queue wait excluded);
    // drives the predicted-wait admission decision and Retry-After.
    double service_ewma_nanos = 0;
    asbase::Histogram latency;
    // Last ServingOptions::trace_ring invocation traces, oldest first.
    std::deque<std::shared_ptr<const asobs::Trace>> traces;
    // Admission-side series, cached like Registration's.
    asobs::Counter* rejections = nullptr;
    asobs::Gauge* queued_gauge = nullptr;
    asobs::LatencyHistogram* queue_wait_hist = nullptr;
    // SLO tracker + milli-scaled burn gauges (alloy_slo_burn_rate{window}).
    // Null when the registration declared no SLO.
    std::shared_ptr<asobs::SloTracker> slo;
    asobs::Gauge* burn_fast = nullptr;
    asobs::Gauge* burn_slow = nullptr;

    // A queued request and a free concurrency slot: competes for a grant.
    bool eligible() const {
      return !waiters.empty() && inflight < reg->options.max_concurrency;
    }
  };

  // The workflow's registration, or NotFound.
  asbase::Result<std::shared_ptr<const Registration>> Lookup(
      const std::string& workflow_name) const;

  // One invocation's state across the flight phases (see visor.cc).
  struct Invocation;

  // The one WFD boot path: clone from the snapshot template when one
  // exists, else Wfd::Create plus the plan's stage workers. Counts
  // clones/fallbacks; opens wfd_clone/wfd_create spans only given a trace.
  static asbase::Result<std::unique_ptr<Wfd>> BootWfd(const BootPlan& plan,
                                                      asobs::Trace* trace,
                                                      uint32_t trace_parent);

  // Flight phases of Invoke, in order. Lease: warm pop or BootWfd. Exec:
  // the orchestrator run. Reclaim: reset, snapshot capture, then park or
  // destroy. Finish: histograms, flight record, service EWMA, outcome
  // accounting. A phase that fails hands its status to FailInvocation.
  asbase::Status LeasePhase(Invocation& inv);
  asbase::Status ExecPhase(Invocation& inv, const asbase::Json& params);
  void ReclaimPhase(Invocation& inv);
  InvokeResult FinishPhase(Invocation& inv);
  // The shared failure path: counts the failure (and timeout), closes the
  // span tree, deposits the flight record, accounts the outcome.
  asbase::Status FailInvocation(Invocation& inv, asbase::Status status);
  // Ends the root span, stamps and deposits the flight record; returns the
  // invocation's total nanoseconds.
  int64_t EndFlight(Invocation& inv, asobs::FlightOutcome outcome);

  // Captures the registration's snapshot template from `wfd` (post-reset,
  // pre-park) if its cell is still open. At most one capture per
  // registration ever runs; failures mark the cell dead so the cost is not
  // re-paid. Never called under mutex_.
  static void MaybeCaptureSnapshot(const Registration& reg, Wfd& wfd);

  // Erases the entry (plus a migration tombstone if asked), wakes its queued
  // admissions and returns its pool; nullptr when not registered here.
  std::shared_ptr<WfdPool> RemoveEntry(const std::string& workflow_name,
                                       bool tombstone);

  void ReleaseAdmission(const std::string& workflow_name);

  // Queue-with-budget admission (DESIGN.md §8): admit immediately when a
  // slot is free, else queue FIFO if the predicted wait fits the budget
  // (workflow default, or budget_ms_override >= 0 from the request), else
  // reject kResourceExhausted. On rejection *predicted_wait_nanos carries
  // the prediction so the caller can compute Retry-After; on admission
  // *queue_wait_nanos is the time actually spent queued. When the workflow
  // migrated away (entry vanished with a live tombstone) the status is
  // kUnavailable and *migrated is set — Serve answers kMigrated instead of
  // kDraining, and *queue_wait_nanos carries the wait already paid so the
  // new shard can account it.
  asbase::Status AdmitBlocking(const std::string& workflow_name,
                               int64_t budget_ms_override,
                               int64_t* queue_wait_nanos,
                               int64_t* predicted_wait_nanos,
                               bool* migrated);
  // Wait the next arrival would see: (position) × service EWMA scaled by
  // the workflow's concurrency. Zero until a service-time sample exists.
  int64_t PredictedWaitNanosLocked(const Entry& entry) const;

  // Deficit-round-robin fairness across workflows competing for global
  // in-flight slots (ROADMAP "weighted slot shares"): among workflows with
  // a runnable queue head, advance every deficit by the minimum number of
  // whole rounds (deficit += rounds × weight) that makes someone reach 1,
  // and pick the highest resulting deficit (ties: smallest name). A
  // weight-3 workflow therefore banks credit 3× as fast and wins ~3 of
  // every 4 contested grants against a weight-1 co-tenant, while equal
  // weights degenerate to plain round-robin. Pure — the cv predicate calls
  // it; ChargeGrantLocked applies the mutation once per actual grant.
  // Empty when nobody eligible is queued.
  std::string NextWeightedWorkflowLocked() const;
  // Whole DRR rounds until some eligible workflow's deficit reaches 1
  // (0 when one already has credit); -1 when nobody eligible is queued.
  double MinGrantRoundsLocked() const;
  // Applies the DRR bookkeeping for granting `winner` a slot. Must run
  // while the winner's ticket is still queued (so the eligible set matches
  // what NextWeightedWorkflowLocked saw).
  void ChargeGrantLocked(const std::string& winner);

  // {workflow=<name>} plus this shard's label (if sharded).
  asobs::Labels WorkflowLabels(const std::string& workflow_name) const;
  asobs::Labels ShardLabels() const;

  // Deposits one record into this shard's flight ring and keeps the
  // records/dropped counters in step.
  void EmitFlight(uint32_t workflow_id, const asobs::FlightRecord& record);

  // Everything the SLO anomaly trigger snapshots besides the flight ring,
  // collected under mutex_ and written to disk after it drops.
  struct BlackBoxRequest {
    std::string reason;
    std::string workflow;
    double fast_burn = 0;
    double slow_burn = 0;
    asbase::Json queues;
  };

  // Shared completion bookkeeping for every invocation outcome (success,
  // error, timeout, rejection): tail-based trace retention, SLO accounting
  // + burn gauges, and — on an SLO trigger — the black-box snapshot.
  // `trace` may be null (rejections have no trace).
  void AccountOutcome(const std::string& workflow_name,
                      std::shared_ptr<const asobs::Trace> trace,
                      asobs::FlightOutcome outcome, int64_t total_nanos);

  // Serializes the flight ring + the request's queue/pool state to a JSON
  // file in ALLOY_BLACKBOX_DIR. Never called under mutex_ (file IO).
  void WriteBlackBox(const BlackBoxRequest& request);

  const ShardIdentity shard_;
  // Cached like Entry's series: the inflight gauge moves on every admission
  // and release.
  asobs::Gauge* inflight_gauge_ = nullptr;

  mutable std::mutex mutex_;
  // Wakes queued requests when a slot frees, a queue position advances, or
  // the shard drains; StopServing waits on it for in-flight to reach 0.
  std::condition_variable admission_cv_;
  // Guarded by mutex_: true until StartServing and from BeginDrain on.
  bool draining_ = true;
  std::map<std::string, Entry> workflows_;
  // Migration tombstones (guarded by mutex_): workflow -> MonoNanos of its
  // MigrateOut. Lets queued waiters (and requests racing the route flip)
  // distinguish "moved, retry elsewhere" from "gone, 404". Pruned lazily
  // after kMigrationTombstoneNanos and erased by a re-registration.
  std::map<std::string, int64_t> migrated_out_;
  static constexpr int64_t kMigrationTombstoneNanos = 5'000'000'000;  // 5 s
  size_t inflight_global_ = 0;  // guarded by mutex_
  ServingOptions serving_;  // guarded by mutex_ (max_inflight can rebalance)

  // ---- flight recorder / tail retention / SLO (DESIGN.md §11) ----
  // Per-shard ring; capacity from ALLOY_FLIGHT_RING (default 1024, 0 =
  // disabled). Lock-free — HTTP scrapers read it without touching mutex_.
  std::unique_ptr<asobs::FlightRecorder> flight_;
  asobs::Counter* flight_records_ = nullptr;
  asobs::Counter* flight_dropped_ = nullptr;
  asobs::Counter* traces_retained_ = nullptr;
  asobs::Counter* blackbox_counter_ = nullptr;
  std::string blackbox_dir_;  // immutable after construction
  std::atomic<uint64_t> blackbox_seq_{0};
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_VISOR_H_
