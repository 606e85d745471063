/**
 * @file
 * Discrete-event microservice cluster simulator — the substrate standing
 * in for the paper's 20-host Kubernetes testbed (see DESIGN.md).
 *
 * The simulator models:
 *  - physical hosts with CPU/memory capacity and background (batch /
 *    iBench-like) load;
 *  - containers with fixed-size thread pools; per-request service times
 *    are log-normal with a mean inflated by the hosting host's CPU and
 *    memory utilization (the interference coupling of Fig. 3);
 *  - request execution along dependency graphs: a request queues at a
 *    container, is processed by one thread, then fans out its downstream
 *    stages (parallel within a stage, sequential across stages) and
 *    responds when the last stage finishes;
 *  - request scheduling at containers: FCFS, or the paper's
 *    delta-probabilistic priority rule at shared microservices (§5.3.2);
 *  - online scaling: container counts can change mid-run through a
 *    PlacementPolicy, and a per-minute controller hook drives closed-loop
 *    experiments (Fig. 13);
 *  - tracing: client/server spans per call, emitted to a SpanCollector;
 *  - fault injection and resilience (src/fault): seed-driven container
 *    crash/restart schedules, host slowdown windows feeding the
 *    interference model, transient per-call failures; the dispatch path
 *    optionally retries with exponential backoff + jitter, applies
 *    per-attempt timeouts, and hedges slow calls. All disabled by
 *    default — a run without faults/resilience is byte-identical to the
 *    pre-fault-layer simulator (no extra RNG draws, no extra events).
 */

#ifndef ERMS_SIM_SIMULATION_HPP
#define ERMS_SIM_SIMULATION_HPP

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "scaling/plan.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/placement.hpp"
#include "telemetry/view.hpp"
#include "trace/span.hpp"

namespace erms {

/** How arriving calls pick a container among a deployment's replicas. */
enum class DispatchPolicy
{
    /** Pick the replica with the fewest outstanding jobs (an
     *  informed/utilization-aware load balancer). */
    LeastLoaded,
    /** Rotate blindly across replicas — the behaviour of a default
     *  Kubernetes Service, which ignores host interference. */
    RoundRobin,
};

/** Static configuration of one simulation run. */
struct SimConfig
{
    int hostCount = 20;
    double hostCpuCores = 32.0;
    double hostMemMb = 64.0 * 1024.0;
    /** delta of the probabilistic priority rule; 0 = strict priority. */
    double schedulingDelta = 0.05;
    DispatchPolicy dispatch = DispatchPolicy::LeastLoaded;
    /** Startup delay before a newly placed container accepts work
     *  (§6.5.2: "a container usually requires several seconds to
     *  start"). 0 keeps containers instantly available. */
    double containerStartupMs = 0.0;
    /** Run length in simulated minutes. */
    int horizonMinutes = 10;
    /** Minutes excluded from metrics at the start. */
    int warmupMinutes = 1;
    std::uint64_t seed = 1;
};

/** One online service attached to the simulator. */
struct ServiceWorkload
{
    ServiceId id = kInvalidService;
    const DependencyGraph *graph = nullptr;
    double slaMs = 0.0;
    /** Constant arrival rate (requests/minute) ... */
    RequestsPerMinute rate = 0.0;
    /** ... or a per-minute rate series overriding it when non-empty
     *  (minute m uses rateSeries[min(m, size-1)]). */
    std::vector<double> rateSeries;
};

/**
 * Read-only snapshot of one deployed container (debug/test
 * observability — the per-replica state the dispatch and drain paths
 * act on).
 */
struct ContainerView
{
    ContainerId id = 0;
    HostId host = kInvalidHost;
    ServiceId dedicatedService = kInvalidService;
    int threads = 0;
    int busy = 0;
    std::size_t queued = 0;
    bool draining = false;
    /** Killed by fault injection (implies draining). */
    bool crashed = false;
    /** Simulated time the container starts accepting work. */
    SimTime readyAt = 0;
};

/**
 * The cluster simulator. It is also the oracle TelemetryView: a
 * controller given no scraped view reads the simulation itself through
 * the same interface, exactly as of the last ended minute.
 */
class Simulation final : public telemetry::TelemetryView
{
  public:
    Simulation(const MicroserviceCatalog &catalog, SimConfig config);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    // --- deployment control -------------------------------------------

    /** Set background (iBench-like) load on one host. */
    void setBackgroundLoad(HostId host, double cpu_util, double mem_util);

    /** Set background load on every host. */
    void setBackgroundLoadAll(double cpu_util, double mem_util);

    /** Replace the placement policy (default: SpreadPlacementPolicy). */
    void setPlacementPolicy(std::shared_ptr<PlacementPolicy> policy);

    /** Scale a microservice's *shared* pool to the given container
     *  count (>= 0). Dedicated partitions are managed separately. */
    void setContainerCount(MicroserviceId ms, int count);

    /**
     * Scale the partition of a microservice dedicated to one service
     * (the §2.3 non-sharing scheme): dedicated containers only accept
     * that service's requests, and its requests prefer them.
     */
    void setDedicatedContainerCount(MicroserviceId ms, ServiceId service,
                                    int count);

    /** Live containers of a microservice (shared + all partitions). */
    int containerCount(MicroserviceId ms) const override;

    /** Apply container counts and priority order from a global plan. */
    void applyPlan(const GlobalPlan &plan);

    /** Configure the priority order (highest first) at one microservice;
     *  services absent from the order get the lowest priority. */
    void setPriorityOrder(MicroserviceId ms,
                          const std::vector<ServiceId> &order);

    /** Drop all priority configuration (pure FCFS everywhere). */
    void clearPriorities();

    void setSchedulingDelta(double delta);

    // --- fault injection and resilience --------------------------------

    /**
     * Configure fault injection for this run (must be called before
     * run()). The schedule is derived from config.seed alone — the same
     * seed yields the same crash times and slowdown windows under any
     * workload, resilience policy, or runner worker count.
     */
    void setFaultConfig(const FaultConfig &config);

    /** Configure the dispatch path's resilience policy (before run()). */
    void setResilienceConfig(const ResilienceConfig &config);

    const FaultConfig &faultConfig() const { return faultConfig_; }
    const ResilienceConfig &resilienceConfig() const { return resilience_; }

    // --- services and tracing ------------------------------------------

    void addService(ServiceWorkload service);

    /** Attach a span collector (not owned; may be null). */
    void setSpanCollector(SpanCollector *collector);

    /**
     * Attach an online telemetry monitor (not owned; may be null; must
     * be set before run()). The simulator then feeds the monitor's
     * metric series as events happen and takes a scrape snapshot every
     * monitor-configured interval, driven by the event queue.
     * Telemetry is purely observational: it draws no randomness and
     * never reorders request events, so a run with a monitor attached
     * completes exactly the same requests at exactly the same times as
     * a run without one (pinned by the TelemetryTransparency tests).
     */
    void setMonitor(telemetry::SimMonitor *monitor);

    /**
     * Controller hook invoked at every simulated minute boundary, after
     * metrics for the elapsed minute were flushed. Drives closed-loop
     * autoscaling experiments.
     */
    void setMinuteCallback(std::function<void(Simulation &, int)> callback);

    // --- execution ------------------------------------------------------

    /** Run the configured horizon. May be called once per Simulation. */
    void run();

    // --- coordinated stepping (sharded execution, src/shard) ------------

    /**
     * Enable minute-pause mode (before beginRun()): instead of invoking
     * the minute callback inline, the drain loop returns control to the
     * caller at every minute boundary — after that minute's metrics
     * flush, but *before* the callback slot and the
     * next boundary post. A shard coordinator uses the pause to merge
     * cross-shard telemetry and run controllers at exactly the point in
     * the event sequence where an inline callback would have run, so a
     * single-shard coordinated run is byte-identical to run().
     */
    void setCoordinatedPause(bool on);

    /**
     * Setup phase of run(): installs the fault schedule, seeds arrivals,
     * posts the first minute boundary and, with a monitor attached,
     * takes the t=0 baseline scrape and posts the next. Counts as the
     * one permitted run() call.
     */
    void beginRun();

    /**
     * Advance the simulation to the next minute pause or to the horizon.
     * If the simulation is currently paused, the paused minute is first
     * finished (minute callback if installed, then the next boundary
     * post) — any mutation the caller performed while paused lands at
     * the exact event-sequence position of an inline minute callback.
     * @return the ended minute index of the new pause, or -1 once the
     *         horizon has been drained.
     */
    int advanceToMinuteBoundary();

    /** Minute index the simulation is paused at; -1 when not paused. */
    int pausedMinute() const { return pausedMinute_; }

    // --- observation -----------------------------------------------------

    const SimMetrics &metrics() const { return metrics_; }
    SimTime now() const { return events_.now(); }

    /** Read-only load views for placement policies / provisioning. */
    std::vector<HostView> hostViews() const;

    /** Cluster-average interference (what Online Scaling feeds into the
     *  profiling model, §5.3.1). */
    Interference clusterInterference() const override;

    /** Requests observed for a service in the most recent full minute,
     *  scaled to requests/minute (workload signal for controllers). */
    double observedRate(ServiceId service) const override;

    /** Exact P95 of the service's end-to-end latencies in the last
     *  ended minute; 0 before the first minute ends or without samples. */
    double serviceP95Ms(ServiceId service) const override;

    /** The last ended minute's profiling-record P95 of a microservice;
     *  0 when it has no record for that minute. */
    double microserviceTailMs(MicroserviceId ms) const override;

    /** Always 0: the simulation observes its own state. */
    double stalenessMs(SimTime) const override { return 0.0; }

    /** Snapshots of every container object of a microservice in
     *  container-id order, including draining ones (empty when
     *  undeployed). */
    std::vector<ContainerView> containerViews(MicroserviceId ms) const;

    /** Current round-robin dispatch cursor of a microservice (always
     *  < the deployment's container-object count once any RoundRobin
     *  dispatch happened; 0 when untouched). Test/debug observability. */
    std::size_t roundRobinCursor(MicroserviceId ms) const;

  private:
    struct HostState;
    struct ContainerState;
    struct Deployment;
    struct RequestState;
    struct CallContext;
    struct QueuedJob;

    /** Why one call attempt failed (metrics + retry routing). */
    enum class FailureKind
    {
        Timeout,
        Transient,
        Crash,
    };

    // event engine internals
    /** Dispatch one typed event record (the engine-hot switch). */
    void dispatchEvent(const EventRecord &event);

    // deployment internals
    ContainerState *addContainer(MicroserviceId ms,
                                 ServiceId dedicated = kInvalidService);
    void removeContainer(MicroserviceId ms,
                         ServiceId dedicated = kInvalidService);
    int countPool(MicroserviceId ms, ServiceId dedicated) const;
    /** The body of setContainerCount (dedicated = kInvalidService) and
     *  setDedicatedContainerCount. */
    void scalePool(MicroserviceId ms, ServiceId dedicated, int count);
    ContainerState *pickContainer(MicroserviceId ms, ServiceId service);
    /** Route a queued attempt again, unless it went stale. */
    void requeue(const QueuedJob &job);
    void reassignQueue(ContainerState &container);
    void redistributeBacklog(MicroserviceId ms);
    Deployment &deploymentFor(MicroserviceId ms);
    /** Erase the container from its deployment's slot vector (keeping
     *  id order) and recycle the object. */
    void eraseContainerSlot(ContainerState &victim);
    /** Re-pack the container's (load, id) pick key after any busy or
     *  queued-count change (see Deployment::loadKeys). */
    void refreshLoadKey(ContainerState &container);
    /** Start draining: flips the flag and keeps the deployment's
     *  special-slot count consistent for the dispatch fast path. */
    void markDraining(ContainerState &container);
    /** Recompute the host's cached memory utilization; called at every
     *  memAllocated / bgMem / memCapacity mutation site. */
    static void refreshMemUtil(HostState &host);
    void rebuildRankTable();

    // request execution internals
    void scheduleArrival(std::size_t service_index);
    void startRequest(std::size_t service_index);
    void issueCall(CallContext *ctx);
    void launchAttempt(CallContext *ctx, int slot);
    void routeAttempt(CallContext *ctx, std::uint64_t attempt,
                      bool count_call);
    void onContainerReady(MicroserviceId ms, ContainerId id);
    void onChildDone(CallContext *parent);
    void enqueueAttempt(ContainerState &container, CallContext *ctx,
                        std::uint64_t attempt);
    void startJob(ContainerState &container, CallContext *ctx,
                  std::uint64_t attempt);
    void finishJob(CallContext *ctx, std::uint64_t attempt,
                   ContainerState *container);
    void deliverCall(CallContext *ctx, int slot);
    void launchStage(CallContext *ctx);
    void completeContext(CallContext *ctx);
    void propagateCompletion(CallContext *parent, RequestState *req,
                             SimTime network);
    void finishRequest(RequestState *req);
    QueuedJob popQueuedJob(ContainerState &container);
    int priorityRank(MicroserviceId ms, ServiceId service) const;

    // fault / resilience internals
    int slotOf(const CallContext *ctx, std::uint64_t attempt) const;
    void dequeueAttempt(CallContext *ctx, int slot);
    void cancelAttempt(CallContext *ctx, int slot);
    void onAttemptTimeout(CallContext *ctx, std::uint64_t attempt);
    void maybeHedge(CallContext *ctx, std::uint64_t attempt);
    void failAttempt(CallContext *ctx, std::uint64_t attempt,
                     FailureKind kind);
    void failCall(CallContext *ctx);
    void onCrashEvent(std::uint64_t victim_draw);
    void crashContainer(ContainerState &victim);
    void installFaultSchedule(SimTime horizon);

    // telemetry internals
    void scheduleScrape(SimTime at, SimTime horizon);
    void scrapeTelemetry();

    // time bookkeeping
    void onMinuteBoundary();
    /** Post the boundary event for the next minute (if any remain). */
    void postNextMinuteBoundary();
    void noteBusyChange(HostState &host, double delta_cores);
    double hostCpuUtil(const HostState &host) const;
    double hostMemUtil(const HostState &host) const;
    double serviceRate(std::size_t service_index) const;

    const MicroserviceCatalog &catalog_;
    SimConfig config_;
    EventQueue events_;
    EventQueue::Lane timeoutLane_; ///< attempt timeouts (see beginRun)
    EventQueue::Lane hedgeLane_;   ///< hedge timers (see beginRun)
    Rng rng_;
    FaultConfig faultConfig_;
    ResilienceConfig resilience_;
    bool faultsEnabled_ = false;
    Rng callFaultRng_;   ///< transient-failure draws (own stream)
    Rng resilienceRng_;  ///< retry-jitter draws (own stream)
    std::uint64_t nextAttempt_ = 1;
    std::shared_ptr<PlacementPolicy> placement_;
    SpanCollector *spans_ = nullptr;
    telemetry::SimMonitor *monitor_ = nullptr;
    std::function<void(Simulation &, int)> minuteCallback_;

    /** Dense host table, indexed by HostId. */
    std::vector<HostState> hosts_;
    /**
     * Dense deployment table, indexed by MicroserviceId (catalog ids are
     * sequential). Each deployment holds stable ContainerState pointers
     * in container-id order; the objects come from a pool (see
     * MinuteScratch), so in-flight events that captured a container
     * pointer always dereference a live object.
     */
    std::vector<Deployment> deployments_;
    std::vector<ServiceWorkload> services_;
    std::unordered_map<ServiceId, std::size_t> serviceIndex_;
    std::unordered_map<MicroserviceId,
                       std::unordered_map<ServiceId, int>>
        priorityRanks_;
    /**
     * Dense priority-rank table rebuilt from priorityRanks_ whenever the
     * order or service set changes: rankTable_[ms][serviceIndex] is the
     * queue class the hot enqueue path reads without hashing. Empty rows
     * mean rank 0 (no order configured at that microservice).
     */
    std::vector<std::vector<int>> rankTable_;
    bool anyPriorities_ = false;

    SimMetrics metrics_;
    /** Lazy per-service pointers into metrics_ maps (node-based, so the
     *  pointers are stable); resolved on first touch to preserve the
     *  maps' lazy entry-creation semantics. Indexed by service index. */
    struct ServiceMetricCache
    {
        SampleSet *endToEnd = nullptr;
        WindowedSamples *byMinute = nullptr;
        std::uint64_t *failed = nullptr;
    };
    std::vector<ServiceMetricCache> metricCache_;

    // per-minute scratch accumulators, stage tables and object pools
    struct MinuteScratch;
    std::unique_ptr<MinuteScratch> scratch_;
    /** Dense per-service arrival counters (index = service index). */
    std::vector<std::uint64_t> arrivalsByIndex_;
    std::vector<std::uint64_t> lastMinuteArrivalsByIndex_;

    RequestId nextRequest_ = 1;
    ContainerId nextContainer_ = 1;
    int currentMinute_ = 0;
    bool ran_ = false;

    // coordinated stepping state (see setCoordinatedPause())
    bool coordinatedPause_ = false;
    /** Set by onMinuteBoundary() in coordinated mode; the queue's drain
     *  reads it after each dispatched event and unwinds. */
    bool pauseRequested_ = false;
    int pausedMinute_ = -1;
    SimTime runHorizon_ = 0;
};

} // namespace erms

#endif // ERMS_SIM_SIMULATION_HPP
