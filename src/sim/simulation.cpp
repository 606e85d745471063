#include "simulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/monitor.hpp"

namespace erms {

namespace {

/**
 * Typed event vocabulary of the simulator, dispatched through
 * Simulation::dispatchEvent. Payload conventions are noted per type.
 */
enum SimEvent : std::uint32_t
{
    kEvArrival = 1,      ///< a = service index; start request, reschedule
    kEvArrivalRecheck,   ///< a = service index; zero-rate minute recheck
    kEvAttemptNetwork,   ///< p1 = ctx, a = attempt id; deliver to replica
    kEvAttemptTimeout,   ///< p1 = ctx, a = attempt id
    kEvHedgeTimer,       ///< p1 = ctx, a = attempt id
    kEvContainerReady,   ///< a = microservice id, b = container id
    kEvJobFinish,        ///< p1 = ctx, p2 = container, a = attempt id
    kEvRetryLaunch,      ///< p1 = ctx; fire the armed retry
    kEvChildDone,        ///< p1 = parent ctx; a child's response arrived
    kEvRequestDone,      ///< p1 = request; response reached the client
    kEvMinuteBoundary,   ///< flush minute metrics, run the controller
    kEvCrash,            ///< a = victim draw
    kEvSlowdownStart,    ///< a = host
    kEvSlowdownEnd,      ///< a = host
    kEvContainerRestart, ///< a = microservice id, b = dedicated service
    kEvScrape,           ///< a = horizon; telemetry snapshot + reschedule
};

} // namespace

// ---------------------------------------------------------------------
// Internal state types
// ---------------------------------------------------------------------

struct Simulation::HostState
{
    HostId id = kInvalidHost;
    double cpuCapacity = 32.0;
    double memCapacity = 64.0 * 1024.0;
    double bgCpu = 0.0;
    double bgMem = 0.0;
    double cpuAllocated = 0.0; ///< sum of container CPU requests
    double memAllocated = 0.0; ///< sum of container memory requests
    double busyCores = 0.0;    ///< cores actively used by busy threads
    /** Cached clamp(bgMem + memAllocated / memCapacity): memory
     *  utilization only changes when containers are placed/removed or
     *  background load is reset, so the division is paid per scale
     *  event instead of per job start. Maintained by refreshMemUtil(). */
    double memUtilCached = 0.0;
    double busyIntegral = 0.0; ///< core-usec within the current minute
    SimTime lastUpdate = 0;
    int containerCount = 0;
    int activeSlowdowns = 0;   ///< straggler windows currently open
};

struct Simulation::CallContext
{
    /**
     * One in-flight attempt of this call. Events (dispatch, timeout,
     * completion, hedge) capture the attempt id and are ignored when it
     * no longer matches a live slot — the generation guard that makes
     * abandonment (timeout), hedging, and crash loss safe against stale
     * scheduled callbacks.
     */
    struct AttemptSlot
    {
        std::uint64_t id = 0; ///< 0 = slot inactive
        ContainerState *container = nullptr;
        bool queued = false;
        SimTime receiveTime = 0;
    };

    RequestState *req = nullptr;
    MicroserviceId ms = kInvalidMicroservice;
    CallContext *parent = nullptr;
    /** This node's stage list, resolved from stageFlat at creation so
     *  fan-out and stage resumption skip the table walk. */
    const std::vector<std::vector<DependencyGraph::Call>> *stages = nullptr;
    int stageIdx = -1;
    int pendingChildren = 0;
    SimTime clientSend = 0;
    SimTime receiveTime = 0;
    SimTime procDone = 0;
    /** [0] = primary (and retries), [1] = hedged duplicate. */
    AttemptSlot attempts[2];
    int retriesUsed = 0;
};

/** One queue entry: a call attempt waiting for a thread. */
struct Simulation::QueuedJob
{
    CallContext *ctx = nullptr;
    std::uint64_t attempt = 0;
};

struct Simulation::ContainerState
{
    ContainerId id = 0;
    MicroserviceId ms = kInvalidMicroservice;
    HostId host = kInvalidHost;
    /** Position in the owning deployment's slot vector (kept current
     *  by eraseContainerSlot). */
    std::size_t slot = 0;
    int threads = 1;
    /** Cached cpuCores / threads: both operands are fixed at creation,
     *  so startJob/finishJob skip the per-job division. */
    double perThreadCores = 0.0;
    int busy = 0;
    bool draining = false;
    /** Killed by fault injection: in-flight results are discarded. */
    bool crashed = false;
    /** Simulated time at which this container starts accepting work. */
    SimTime readyAt = 0;
    /** Dedicated to one service under non-sharing partitions. */
    ServiceId dedicatedService = kInvalidService;
    std::vector<std::deque<QueuedJob>> queues;
    std::size_t queuedTotal = 0;
    std::uint64_t callsThisMinute = 0;
};

/**
 * One microservice's deployment: stable container pointers in
 * container-id order. Ids are assigned monotonically and new containers
 * are appended, so slot order is the insertion sequence that every
 * order-sensitive reader (FP accumulation at minute boundaries,
 * eviction candidates, crash victims, views, backlog redistribution)
 * relies on; scale-in erases in place to keep it.
 */
struct Simulation::Deployment
{
    std::vector<ContainerState *> slots;
    /**
     * Packed pick keys parallel to slots: (busy + queued) << 32 | id.
     * Comparing keys is exactly the (load, id-tiebreak) least-loaded
     * order, so the dispatch fast path scans one contiguous word per
     * container instead of chasing every slot pointer. Maintained by
     * refreshLoadKey() at every busy/queued mutation.
     */
    std::vector<std::uint64_t> loadKeys;
    /** Slots the fast scan may not treat as universally eligible
     *  (draining or dedicated to one service). */
    int specials = 0;
    /** Upper bound on every slot's readyAt (monotone under now()):
     *  once now() passes it, no slot is still starting up. */
    SimTime readyHorizon = 0;
    /** Live (non-draining) containers across all partitions. */
    int live = 0;
    std::size_t rrCursor = 0;
    /** A container existed here at least once (minute bookkeeping and
     *  scrapes keep reporting a deployment after it scales to zero). */
    bool everDeployed = false;
    /** Log-normal parameters derived from the profile's serviceCv,
     *  cached so the per-job service-time draw skips the log/sqrt
     *  re-derivation. Revalidated against the live cv on every use, so
     *  profiles may still be mutated mid-run. */
    double cachedCv = -1.0;
    double sigma = 0.0;
    double halfSigma2 = 0.0;
};

namespace {

/**
 * Recycles objects of one type at stable addresses: a deque keeps every
 * object ever made (freed wholesale on destruction), a free list the
 * ones not in use. acquire() hands out a value-initialized object.
 */
template <typename T>
class Pool
{
  public:
    T *
    acquire()
    {
        if (free_.empty())
            return &storage_.emplace_back();
        T *object = free_.back();
        free_.pop_back();
        *object = T{};
        return object;
    }

    void release(T *object) { free_.push_back(object); }

  private:
    std::deque<T> storage_;
    std::vector<T *> free_;
};

/** Sorted key list for deterministic unordered_map traversal. */
template <typename Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &map)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(map.size());
    for (const auto &entry : map)
        keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

struct Simulation::RequestState
{
    RequestId id = 0;
    ServiceId service = kInvalidService;
    std::size_t serviceIndex = 0;
    SimTime arrival = 0;
    bool traced = false;
    /** Telemetry span sampling (independent of the SpanCollector's). */
    bool telemetrySampled = false;
    bool failed = false;
};

struct Simulation::MinuteScratch
{
    /**
     * Dense per-microservice latency accumulators (index = catalog id).
     * msTouched lists the ids with samples this minute, so the minute
     * flush clears only those sets — clear() keeps each SampleSet's
     * capacity, making the steady state allocation-free.
     */
    std::vector<SampleSet> msLatency;
    std::vector<MicroserviceId> msTouched;
    // Stage layout storage (node-based map: stable addresses) plus the
    // flat index the hot fan-out path reads: stageFlat[serviceIndex][ms]
    // points at that node's stage list.
    std::vector<std::unordered_map<
        MicroserviceId, std::vector<std::vector<DependencyGraph::Call>>>>
        stageCache;
    std::vector<
        std::vector<const std::vector<std::vector<DependencyGraph::Call>> *>>
        stageFlat;
    Pool<CallContext> contexts;
    Pool<RequestState> requests;
    Pool<ContainerState> containers;

    SampleSet &
    latencyFor(MicroserviceId ms)
    {
        if (static_cast<std::size_t>(ms) >= msLatency.size())
            msLatency.resize(static_cast<std::size_t>(ms) + 1);
        SampleSet &set = msLatency[ms];
        if (set.empty())
            msTouched.push_back(ms);
        return set;
    }

    void
    flushLatencies()
    {
        for (MicroserviceId ms : msTouched)
            msLatency[ms].clear();
        msTouched.clear();
    }

    void
    releaseCtx(CallContext *ctx)
    {
        // Double-release guard: a live context always has its request
        // set (acquire's caller assigns it) and both attempt slots are
        // retired before any release path runs. A stale queue entry that
        // somehow re-released a pooled context would trip here.
        ERMS_ASSERT_MSG(ctx->req != nullptr,
                        "CallContext released twice");
        ERMS_ASSERT(ctx->attempts[0].id == 0 && ctx->attempts[1].id == 0);
        ctx->req = nullptr;
        contexts.release(ctx);
    }

    void
    releaseReq(RequestState *req)
    {
        ERMS_ASSERT_MSG(req->id != 0, "RequestState released twice");
        req->id = 0;
        requests.release(req);
    }
};

// ---------------------------------------------------------------------
// Construction / configuration
// ---------------------------------------------------------------------

Simulation::Simulation(const MicroserviceCatalog &catalog, SimConfig config)
    : catalog_(catalog), config_(config), rng_(config.seed),
      placement_(std::make_shared<SpreadPlacementPolicy>()),
      scratch_(std::make_unique<MinuteScratch>())
{
    ERMS_ASSERT(config.hostCount > 0);
    ERMS_ASSERT(config.horizonMinutes > 0);
    ERMS_ASSERT(config.warmupMinutes >= 0);
    hosts_.resize(static_cast<std::size_t>(config.hostCount));
    for (int i = 0; i < config.hostCount; ++i) {
        HostState &host = hosts_[static_cast<std::size_t>(i)];
        host.id = static_cast<HostId>(i);
        host.cpuCapacity = config.hostCpuCores;
        host.memCapacity = config.hostMemMb;
        refreshMemUtil(host);
    }
}

Simulation::~Simulation() = default;

void
Simulation::setBackgroundLoad(HostId host, double cpu_util, double mem_util)
{
    ERMS_ASSERT(host < hosts_.size());
    hosts_[host].bgCpu = std::clamp(cpu_util, 0.0, 1.0);
    hosts_[host].bgMem = std::clamp(mem_util, 0.0, 1.0);
    refreshMemUtil(hosts_[host]);
}

void
Simulation::setBackgroundLoadAll(double cpu_util, double mem_util)
{
    for (std::size_t i = 0; i < hosts_.size(); ++i)
        setBackgroundLoad(static_cast<HostId>(i), cpu_util, mem_util);
}

void
Simulation::setPlacementPolicy(std::shared_ptr<PlacementPolicy> policy)
{
    ERMS_ASSERT(policy != nullptr);
    placement_ = std::move(policy);
}

void
Simulation::setSchedulingDelta(double delta)
{
    ERMS_ASSERT(delta >= 0.0 && delta < 1.0);
    config_.schedulingDelta = delta;
}

void
Simulation::setSpanCollector(SpanCollector *collector)
{
    spans_ = collector;
}

void
Simulation::setMonitor(telemetry::SimMonitor *monitor)
{
    ERMS_ASSERT_MSG(!ran_, "setMonitor must precede run()");
    monitor_ = monitor;
}

void
Simulation::setFaultConfig(const FaultConfig &config)
{
    ERMS_ASSERT_MSG(!ran_, "setFaultConfig must precede run()");
    ERMS_ASSERT(config.crashesPerMinute >= 0.0);
    ERMS_ASSERT(config.slowdownsPerMinute >= 0.0);
    ERMS_ASSERT(config.callFailureProbability >= 0.0 &&
                config.callFailureProbability <= 1.0);
    ERMS_ASSERT(config.slowdownFactor >= 1.0);
    ERMS_ASSERT(config.azEvents.eventsPerMinute >= 0.0);
    ERMS_ASSERT(config.azEvents.azCount > 0);
    faultConfig_ = config;
    faultsEnabled_ = config.anyFaults();
    // Dedicated streams (1 = transient failures, 2 = retry jitter) keep
    // per-call draws off the request-path RNG and off each other, so
    // enabling one knob never shifts another knob's draw sequence.
    callFaultRng_ = Rng(deriveRunSeed(config.seed, 1));
    resilienceRng_ = Rng(deriveRunSeed(config.seed, 2));
}

void
Simulation::setResilienceConfig(const ResilienceConfig &config)
{
    ERMS_ASSERT_MSG(!ran_, "setResilienceConfig must precede run()");
    ERMS_ASSERT(config.maxRetries >= 0);
    ERMS_ASSERT(config.retryBackoffMs >= 0.0);
    ERMS_ASSERT(config.retryBackoffMultiplier >= 1.0);
    ERMS_ASSERT(config.retryJitter >= 0.0);
    ERMS_ASSERT(config.timeoutMs >= 0.0);
    ERMS_ASSERT(config.hedgeDelayMs >= 0.0);
    resilience_ = config;
}

void
Simulation::setMinuteCallback(std::function<void(Simulation &, int)> callback)
{
    minuteCallback_ = std::move(callback);
}

void
Simulation::addService(ServiceWorkload service)
{
    ERMS_ASSERT(service.graph != nullptr);
    ERMS_ASSERT(service.id != kInvalidService);
    ERMS_ASSERT_MSG(!serviceIndex_.count(service.id),
                    "service added twice");
    serviceIndex_.emplace(service.id, services_.size());

    // Cache each node's stage layout for fast fan-out. The map owns the
    // storage (node-based, stable addresses); the flat per-id pointer
    // table is what launchStage indexes per call.
    std::unordered_map<MicroserviceId,
                       std::vector<std::vector<DependencyGraph::Call>>>
        cache;
    MicroserviceId max_node = 0;
    for (MicroserviceId id : service.graph->nodes()) {
        cache.emplace(id, service.graph->stages(id));
        max_node = std::max(max_node, id);
    }
    std::vector<const std::vector<std::vector<DependencyGraph::Call>> *>
        flat(static_cast<std::size_t>(max_node) + 1, nullptr);
    for (const auto &[id, stages] : cache)
        flat[id] = &stages;
    scratch_->stageCache.push_back(std::move(cache));
    scratch_->stageFlat.push_back(std::move(flat));

    services_.push_back(std::move(service));
    metricCache_.emplace_back();
    arrivalsByIndex_.push_back(0);
    lastMinuteArrivalsByIndex_.push_back(0);
    rebuildRankTable();
}

// ---------------------------------------------------------------------
// Host accounting
// ---------------------------------------------------------------------

void
Simulation::noteBusyChange(HostState &host, double delta_cores)
{
    const SimTime t = now();
    host.busyIntegral +=
        host.busyCores * static_cast<double>(t - host.lastUpdate);
    host.lastUpdate = t;
    host.busyCores = std::max(0.0, host.busyCores + delta_cores);
}

double
Simulation::hostCpuUtil(const HostState &host) const
{
    double util = host.bgCpu + host.busyCores / host.cpuCapacity;
    // A straggling host reports inflated utilization, feeding the
    // interference model exactly like iBench background load does.
    if (host.activeSlowdowns > 0)
        util += faultConfig_.slowdownCpuInflate;
    return std::clamp(util, 0.0, 1.0);
}

void
Simulation::refreshMemUtil(HostState &host)
{
    host.memUtilCached = std::clamp(
        host.bgMem + host.memAllocated / host.memCapacity, 0.0, 1.0);
}

double
Simulation::hostMemUtil(const HostState &host) const
{
    return host.memUtilCached;
}

Interference
Simulation::clusterInterference() const
{
    Interference avg;
    for (const HostState &host : hosts_) {
        avg.cpuUtil += hostCpuUtil(host);
        avg.memUtil += hostMemUtil(host);
    }
    avg.cpuUtil /= static_cast<double>(hosts_.size());
    avg.memUtil /= static_cast<double>(hosts_.size());
    return avg;
}

std::vector<HostView>
Simulation::hostViews() const
{
    std::vector<HostView> views;
    views.reserve(hosts_.size());
    for (const HostState &host : hosts_) {
        HostView view;
        view.id = host.id;
        view.cpuCapacityCores = host.cpuCapacity;
        view.memCapacityMb = host.memCapacity;
        view.cpuAllocatedCores = host.cpuAllocated;
        view.memAllocatedMb = host.memAllocated;
        view.backgroundCpuUtil = host.bgCpu;
        view.backgroundMemUtil = host.bgMem;
        view.cpuUtil = hostCpuUtil(host);
        view.memUtil = hostMemUtil(host);
        views.push_back(view);
    }
    return views;
}

// ---------------------------------------------------------------------
// Deployment management
// ---------------------------------------------------------------------

Simulation::Deployment &
Simulation::deploymentFor(MicroserviceId ms)
{
    if (static_cast<std::size_t>(ms) >= deployments_.size())
        deployments_.resize(static_cast<std::size_t>(ms) + 1);
    return deployments_[ms];
}

inline void
Simulation::refreshLoadKey(ContainerState &container)
{
    Deployment &dep = deployments_[container.ms];
    dep.loadKeys[container.slot] =
        ((static_cast<std::uint64_t>(container.busy) +
          container.queuedTotal)
         << 32) |
        container.id;
}

inline void
Simulation::markDraining(ContainerState &container)
{
    if (container.draining)
        return;
    container.draining = true;
    // Dedicated slots are already counted special; don't double-count.
    if (container.dedicatedService == kInvalidService)
        ++deployments_[container.ms].specials;
}

void
Simulation::eraseContainerSlot(ContainerState &victim)
{
    ERMS_ASSERT(victim.busy == 0 && victim.queuedTotal == 0);
    Deployment &dep = deployments_[victim.ms];
    const std::size_t index = victim.slot;
    ERMS_ASSERT(index < dep.slots.size() && dep.slots[index] == &victim);
    dep.slots.erase(dep.slots.begin() + static_cast<std::ptrdiff_t>(index));
    dep.loadKeys.erase(dep.loadKeys.begin() +
                       static_cast<std::ptrdiff_t>(index));
    for (std::size_t i = index; i < dep.slots.size(); ++i)
        dep.slots[i]->slot = i;
    if (victim.draining || victim.dedicatedService != kInvalidService)
        --dep.specials;
    scratch_->containers.release(&victim);
}

Simulation::ContainerState *
Simulation::addContainer(MicroserviceId ms, ServiceId dedicated)
{
    const MicroserviceProfile &profile = catalog_.profile(ms);
    const std::size_t host_index = placement_->placeContainer(
        hostViews(), profile.resources.cpuCores, profile.resources.memoryMb);
    ERMS_ASSERT(host_index < hosts_.size());
    HostState &host = hosts_[host_index];
    host.cpuAllocated += profile.resources.cpuCores;
    host.memAllocated += profile.resources.memoryMb;
    refreshMemUtil(host);
    ++host.containerCount;

    ContainerState *container = scratch_->containers.acquire();
    container->id = nextContainer_++;
    container->ms = ms;
    container->host = host.id;
    container->threads = std::max(1, profile.threadsPerContainer);
    container->perThreadCores =
        profile.resources.cpuCores / container->threads;
    container->queues.resize(1);
    container->dedicatedService = dedicated;
    container->readyAt = now() + toSimTime(config_.containerStartupMs);
    Deployment &dep = deploymentFor(ms);
    container->slot = dep.slots.size();
    dep.slots.push_back(container);
    dep.loadKeys.push_back(container->id); // load 0
    if (dedicated != kInvalidService)
        ++dep.specials;
    dep.readyHorizon = std::max(dep.readyHorizon, container->readyAt);
    ++dep.live;
    dep.everDeployed = true;
    return container;
}

void
Simulation::requeue(const QueuedJob &job)
{
    const int slot = slotOf(job.ctx, job.attempt);
    if (slot < 0)
        return; // stale entry (attempt already abandoned)
    job.ctx->attempts[slot].queued = false;
    job.ctx->attempts[slot].container = nullptr;
    routeAttempt(job.ctx, job.attempt, /*count_call=*/false);
}

void
Simulation::reassignQueue(ContainerState &container)
{
    for (auto &queue : container.queues) {
        while (!queue.empty()) {
            const QueuedJob job = queue.front();
            queue.pop_front();
            --container.queuedTotal;
            refreshLoadKey(container);
            requeue(job);
        }
    }
}

void
Simulation::removeContainer(MicroserviceId ms, ServiceId dedicated)
{
    ERMS_ASSERT_MSG(static_cast<std::size_t>(ms) < deployments_.size() &&
                        !deployments_[ms].slots.empty(),
                    "no container to remove");
    Deployment &dep = deployments_[ms];

    // Candidates: non-draining containers of the requested pool, in
    // id order (the eviction pick is an index into this list).
    std::vector<std::size_t> candidate_hosts;
    std::vector<ContainerState *> candidates;
    for (ContainerState *container : dep.slots) {
        if (!container->draining &&
            container->dedicatedService == dedicated) {
            candidate_hosts.push_back(container->host);
            candidates.push_back(container);
        }
    }
    if (candidates.empty())
        return; // everything is already draining

    const MicroserviceProfile &profile = catalog_.profile(ms);
    const std::size_t pick = placement_->evictContainer(
        hostViews(), candidate_hosts, profile.resources.cpuCores,
        profile.resources.memoryMb);
    ERMS_ASSERT(pick < candidates.size());
    ContainerState &victim = *candidates[pick];

    // Free host bookkeeping immediately (capacity is returned on drain
    // start; busy threads finish their current jobs).
    HostState &host = hosts_[victim.host];
    host.cpuAllocated -= profile.resources.cpuCores;
    host.memAllocated -= profile.resources.memoryMb;
    refreshMemUtil(host);
    --host.containerCount;
    --dep.live;

    if (victim.busy == 0 && victim.queuedTotal == 0) {
        eraseContainerSlot(victim);
        return;
    }
    markDraining(victim);
    reassignQueue(victim);
}

int
Simulation::countPool(MicroserviceId ms, ServiceId dedicated) const
{
    if (static_cast<std::size_t>(ms) >= deployments_.size())
        return 0;
    int live = 0;
    for (const ContainerState *container : deployments_[ms].slots) {
        if (!container->draining &&
            container->dedicatedService == dedicated)
            ++live;
    }
    return live;
}

// After a scale-out, spread backlog that accumulated in the old
// containers across the enlarged deployment (requests queue at the
// service endpoint, not at an individual replica). Drain every queue
// first, then redistribute, so redispatch cannot loop.
void
Simulation::redistributeBacklog(MicroserviceId ms)
{
    if (static_cast<std::size_t>(ms) >= deployments_.size())
        return;
    std::vector<QueuedJob> backlog;
    for (ContainerState *container : deployments_[ms].slots) {
        for (auto &queue : container->queues) {
            while (!queue.empty()) {
                backlog.push_back(queue.front());
                queue.pop_front();
                --container->queuedTotal;
            }
        }
        refreshLoadKey(*container);
    }
    for (const QueuedJob &job : backlog)
        requeue(job);
}

void
Simulation::scalePool(MicroserviceId ms, ServiceId dedicated, int count)
{
    ERMS_ASSERT(count >= 0);
    const bool scaled_out = countPool(ms, dedicated) < count;
    while (countPool(ms, dedicated) < count)
        addContainer(ms, dedicated);
    while (countPool(ms, dedicated) > count)
        removeContainer(ms, dedicated);

    if (scaled_out)
        redistributeBacklog(ms);
}

void
Simulation::setContainerCount(MicroserviceId ms, int count)
{
    scalePool(ms, kInvalidService, count);
}

int
Simulation::containerCount(MicroserviceId ms) const
{
    if (static_cast<std::size_t>(ms) >= deployments_.size())
        return 0;
    return deployments_[ms].live;
}

void
Simulation::setDedicatedContainerCount(MicroserviceId ms, ServiceId service,
                                       int count)
{
    ERMS_ASSERT(service != kInvalidService);
    scalePool(ms, service, count);
}

void
Simulation::applyPlan(const GlobalPlan &plan)
{
    // Plan maps are unordered; apply in microservice-id order so the
    // placement sequence (and with it every downstream draw) never
    // depends on unspecified hash iteration order.
    if (plan.policy == SharingPolicy::NonSharing &&
        !plan.services.empty()) {
        // Faithful §2.3 non-sharing: a dedicated partition per service
        // at every microservice it uses, no shared pool.
        for (const auto &alloc : plan.services) {
            for (MicroserviceId ms : sortedKeys(alloc.perMicroservice)) {
                setDedicatedContainerCount(
                    ms, alloc.service,
                    alloc.perMicroservice.at(ms).containers);
            }
        }
        for (MicroserviceId ms : sortedKeys(plan.containers))
            setContainerCount(ms, 0);
        clearPriorities();
        return;
    }
    for (MicroserviceId ms : sortedKeys(plan.containers))
        setContainerCount(ms, plan.containers.at(ms));
    if (plan.policy == SharingPolicy::Priority) {
        for (MicroserviceId ms : sortedKeys(plan.priorityOrder))
            setPriorityOrder(ms, plan.priorityOrder.at(ms));
    } else {
        clearPriorities();
    }
}

void
Simulation::setPriorityOrder(MicroserviceId ms,
                             const std::vector<ServiceId> &order)
{
    auto &ranks = priorityRanks_[ms];
    ranks.clear();
    for (std::size_t i = 0; i < order.size(); ++i)
        ranks[order[i]] = static_cast<int>(i);
    rebuildRankTable();
}

void
Simulation::clearPriorities()
{
    priorityRanks_.clear();
    rebuildRankTable();
}

int
Simulation::priorityRank(MicroserviceId ms, ServiceId service) const
{
    auto it = priorityRanks_.find(ms);
    if (it == priorityRanks_.end())
        return 0;
    auto rank_it = it->second.find(service);
    if (rank_it == it->second.end())
        return static_cast<int>(it->second.size()); // lowest priority
    return rank_it->second;
}

// Project the configured priority orders onto a dense
// [microservice][service-index] table so the per-enqueue rank lookup is
// two array indexes instead of two hash probes.
void
Simulation::rebuildRankTable()
{
    anyPriorities_ = !priorityRanks_.empty();
    rankTable_.clear();
    if (!anyPriorities_)
        return;
    MicroserviceId max_ms = 0;
    for (const auto &[ms, ranks] : priorityRanks_)
        max_ms = std::max(max_ms, ms);
    rankTable_.resize(static_cast<std::size_t>(max_ms) + 1);
    for (const auto &[ms, ranks] : priorityRanks_) {
        auto &row = rankTable_[ms];
        row.resize(services_.size());
        for (std::size_t i = 0; i < services_.size(); ++i)
            row[i] = priorityRank(ms, services_[i].id);
    }
}

Simulation::ContainerState *
Simulation::pickContainer(MicroserviceId ms, ServiceId service)
{
    if (static_cast<std::size_t>(ms) >= deployments_.size() ||
        deployments_[ms].live == 0) {
        // Kubernetes keeps at least one replica; mirror that.
        return addContainer(ms);
    }
    Deployment &dep = deployments_[ms];
    const SimTime t = now();

    // Steady-state fast path (least-loaded only): no draining or
    // dedicated slots and every startup window has passed, so all slots
    // are eligible and the winner is simply the minimum packed
    // (load, id) key — one contiguous word per container instead of a
    // pointer chase through every ContainerState.
    if (config_.dispatch != DispatchPolicy::RoundRobin &&
        dep.specials == 0 && t >= dep.readyHorizon) {
        const std::uint64_t *keys = dep.loadKeys.data();
        const std::size_t n = dep.loadKeys.size();
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (keys[i] < keys[best])
                best = i;
        }
        return dep.slots[best];
    }

    // A container is eligible if it is up, started, and either shared or
    // dedicated to this request's service.
    const auto eligible = [&](const ContainerState &container,
                              bool allow_starting) {
        if (container.draining)
            return false;
        if (!allow_starting && container.readyAt > t)
            return false;
        return container.dedicatedService == kInvalidService ||
               container.dedicatedService == service;
    };

    for (const bool allow_starting : {false, true}) {
        if (config_.dispatch == DispatchPolicy::RoundRobin) {
            // Self-contained RR pass: probe one full rotation; when no
            // candidate is eligible, move on to the next pass (and only
            // after both passes to the spill-over below) instead of
            // falling through into the least-loaded scan. The cursor is
            // kept wrapped to the deployment size so it cannot grow
            // unbounded and self-rebases when the deployment shrinks.
            std::size_t &cursor = dep.rrCursor;
            const auto &slots = dep.slots;
            cursor %= slots.size();
            for (std::size_t probe = 0; probe < slots.size(); ++probe) {
                ContainerState *candidate = slots[cursor];
                cursor = (cursor + 1) % slots.size();
                if (eligible(*candidate, allow_starting))
                    return candidate;
            }
            continue;
        }
        ContainerState *best = nullptr;
        std::size_t best_load = 0;
        for (ContainerState *container : dep.slots) {
            if (!eligible(*container, allow_starting))
                continue;
            const std::size_t load =
                static_cast<std::size_t>(container->busy) +
                container->queuedTotal;
            // Slots are in id order, so the first lowest load is also
            // the lowest id, the winner the fast path's keys pick.
            if (best == nullptr || load < best_load) {
                best = container;
                best_load = load;
            }
        }
        if (best != nullptr)
            return best;
        // Nothing ready yet: retry allowing still-starting containers
        // (requests queue there until startup completes).
    }
    // Only draining or foreign-partition containers remain: spill over.
    return addContainer(ms);
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

double
Simulation::serviceRate(std::size_t service_index) const
{
    const ServiceWorkload &svc = services_[service_index];
    if (!svc.rateSeries.empty()) {
        const std::size_t minute = std::min(
            static_cast<std::size_t>(currentMinute_),
            svc.rateSeries.size() - 1);
        return svc.rateSeries[minute];
    }
    return svc.rate;
}

void
Simulation::scheduleArrival(std::size_t service_index)
{
    const double rate = serviceRate(service_index);
    if (rate <= 0.0) {
        // Re-check at the next minute boundary.
        const SimTime next_minute = (now() / kMinuteUs + 1) * kMinuteUs;
        events_.post(next_minute + 1,
                     EventRecord{.a = service_index,
                                 .type = kEvArrivalRecheck});
        return;
    }
    const double mean_gap_us = static_cast<double>(kMinuteUs) / rate;
    const SimTime gap =
        static_cast<SimTime>(std::max(1.0, rng_.exponential(mean_gap_us)));
    events_.postAfter(gap,
                      EventRecord{.a = service_index, .type = kEvArrival});
}

void
Simulation::startRequest(std::size_t service_index)
{
    const ServiceWorkload &svc = services_[service_index];
    RequestState *req = scratch_->requests.acquire();
    req->id = nextRequest_++;
    req->service = svc.id;
    req->serviceIndex = service_index;
    req->arrival = now();
    req->traced = spans_ != nullptr && spans_->sampleRequest(req->id);
    req->telemetrySampled =
        monitor_ != nullptr && monitor_->sampleSpan(req->id);
    ++metrics_.requestsGenerated;
    ++arrivalsByIndex_[service_index];
    if (monitor_ != nullptr)
        monitor_->onRequestArrival(svc.id);

    CallContext *root = scratch_->contexts.acquire();
    root->req = req;
    root->ms = svc.graph->root();
    root->parent = nullptr;
    root->stages = scratch_->stageFlat[service_index][root->ms];
    root->clientSend = now();

    issueCall(root);
}

// A new call is born: count it and launch its primary attempt.
void
Simulation::issueCall(CallContext *ctx)
{
    ++metrics_.faults.firstAttempts;
    launchAttempt(ctx, 0);
}

// Create an attempt in the given slot, arm its timeout (and, for
// primary attempts, the hedge timer), and send it over the network.
void
Simulation::launchAttempt(CallContext *ctx, int slot)
{
    CallContext::AttemptSlot &attempt = ctx->attempts[slot];
    attempt.id = nextAttempt_++;
    attempt.container = nullptr;
    attempt.queued = false;
    attempt.receiveTime = 0;
    const std::uint64_t id = attempt.id;

    if (resilience_.timeoutMs > 0.0) {
        events_.postLane(timeoutLane_,
                         EventRecord{.a = id, .p1 = ctx,
                                     .type = kEvAttemptTimeout});
    }
    if (slot == 0 && resilience_.hedgeDelayMs > 0.0) {
        events_.postLane(hedgeLane_, EventRecord{.a = id, .p1 = ctx,
                                                 .type = kEvHedgeTimer});
    }

    const SimTime network = toSimTime(catalog_.profile(ctx->ms).networkMs);
    events_.postAfter(network, EventRecord{.a = id, .p1 = ctx,
                                           .type = kEvAttemptNetwork});
}

void
Simulation::enqueueAttempt(ContainerState &container, CallContext *ctx,
                           std::uint64_t attempt)
{
    // Dense rank lookup (rankTable_ mirrors priorityRank()): the common
    // no-priorities case is a single flag test.
    int rank = 0;
    if (anyPriorities_ &&
        static_cast<std::size_t>(ctx->ms) < rankTable_.size()) {
        const auto &row = rankTable_[ctx->ms];
        if (!row.empty())
            rank = row[ctx->req->serviceIndex];
    }
    if (static_cast<std::size_t>(rank) >= container.queues.size())
        container.queues.resize(static_cast<std::size_t>(rank) + 1);
    container.queues[static_cast<std::size_t>(rank)].push_back(
        QueuedJob{ctx, attempt});
    ++container.queuedTotal;
    refreshLoadKey(container);
    const int slot = slotOf(ctx, attempt);
    ERMS_ASSERT(slot >= 0);
    ctx->attempts[slot].queued = true;
}

void
Simulation::routeAttempt(CallContext *ctx, std::uint64_t attempt,
                         bool count_call)
{
    const int slot = slotOf(ctx, attempt);
    if (slot < 0)
        return; // attempt abandoned while in network transit

    ContainerState *container = pickContainer(ctx->ms, ctx->req->service);
    ctx->attempts[slot].container = container;
    if (count_call) {
        ctx->attempts[slot].receiveTime = now();
        ++container->callsThisMinute;
    }

    if (container->readyAt > now()) {
        // Container still starting: queue the job and kick the queue
        // once startup completes. The event looks the container up by
        // id when it fires: scale-in may have erased it (its queue gets
        // reassigned on drain).
        enqueueAttempt(*container, ctx, attempt);
        events_.post(container->readyAt,
                     EventRecord{.a = ctx->ms, .b = container->id,
                                 .type = kEvContainerReady});
        return;
    }

    if (container->busy < container->threads) {
        startJob(*container, ctx, attempt);
        return;
    }
    enqueueAttempt(*container, ctx, attempt);
}

// Startup completed: hand every idle thread a queued job. The
// container is found by id — scale-in may have erased it between the
// kick being scheduled and firing (its queue gets reassigned on drain).
void
Simulation::onContainerReady(MicroserviceId ms, ContainerId id)
{
    if (static_cast<std::size_t>(ms) >= deployments_.size())
        return;
    for (ContainerState *candidate : deployments_[ms].slots) {
        if (candidate->id != id)
            continue;
        while (candidate->busy < candidate->threads) {
            const QueuedJob next = popQueuedJob(*candidate);
            if (next.ctx == nullptr)
                break;
            startJob(*candidate, next.ctx, next.attempt);
        }
        return;
    }
}

void
Simulation::startJob(ContainerState &container, CallContext *ctx,
                     std::uint64_t attempt)
{
    const MicroserviceProfile &profile = catalog_.profile(container.ms);
    HostState &host = hosts_[container.host];
    ++container.busy;
    refreshLoadKey(container);
    noteBusyChange(host, container.perThreadCores);

    const double cpu = hostCpuUtil(host);
    const double mem = hostMemUtil(host);
    double mean_ms =
        profile.baseServiceMs *
        (1.0 + profile.cpuSlowdown * cpu + profile.memSlowdown * mem);
    // Straggler window: every µs of work on this host takes longer.
    if (host.activeSlowdowns > 0)
        mean_ms *= faultConfig_.slowdownFactor;
    double proc_ms;
    if (profile.serviceCv == 0.0) {
        proc_ms = mean_ms;
    } else {
        Deployment &dep = deployments_[container.ms];
        if (dep.cachedCv != profile.serviceCv) {
            const double sigma2 =
                std::log(1.0 + profile.serviceCv * profile.serviceCv);
            dep.sigma = std::sqrt(sigma2);
            dep.halfSigma2 = 0.5 * sigma2;
            dep.cachedCv = profile.serviceCv;
        }
        proc_ms =
            rng_.logNormalMeanSigma(mean_ms, dep.sigma, dep.halfSigma2);
    }
    const SimTime proc = std::max<SimTime>(1, toSimTime(proc_ms));
    // Carry the container: ctx's attempt slots may be retargeted
    // before the job completes (timeout, hedge win), but the thread and
    // host bookkeeping always belongs to this container.
    events_.postAfter(proc,
                      EventRecord{.a = attempt, .p1 = ctx, .p2 = &container,
                                  .type = kEvJobFinish});
}

Simulation::QueuedJob
Simulation::popQueuedJob(ContainerState &container)
{
    while (container.queuedTotal > 0) {
        // Collect the non-empty priority classes, highest priority first.
        std::size_t last_nonempty = 0;
        std::size_t nonempty = 0;
        for (std::size_t rank = 0; rank < container.queues.size();
             ++rank) {
            if (!container.queues[rank].empty()) {
                ++nonempty;
                last_nonempty = rank;
            }
        }
        ERMS_ASSERT(nonempty > 0);

        std::size_t chosen = last_nonempty;
        if (nonempty > 1) {
            // Paper §5.3.2: the l-th highest priority class is served
            // with probability delta^(l-1) * (1 - delta); the lowest
            // class takes the remaining mass.
            const double delta = config_.schedulingDelta;
            for (std::size_t rank = 0; rank < last_nonempty; ++rank) {
                if (container.queues[rank].empty())
                    continue;
                if (rng_.bernoulli(1.0 - delta)) {
                    chosen = rank;
                    break;
                }
            }
        }

        const QueuedJob job = container.queues[chosen].front();
        container.queues[chosen].pop_front();
        --container.queuedTotal;
        refreshLoadKey(container);
        const int slot = slotOf(job.ctx, job.attempt);
        if (slot < 0)
            continue; // stale entry (abandoned attempt); drop it
        job.ctx->attempts[slot].queued = false;
        return job;
    }
    return QueuedJob{};
}

void
Simulation::finishJob(CallContext *ctx, std::uint64_t attempt,
                      ContainerState *container)
{
    HostState &host = hosts_[container->host];
    --container->busy;
    refreshLoadKey(*container);
    noteBusyChange(host, -container->perThreadCores);

    // Read fault state before the container can be recycled below.
    const bool crashed = container->crashed;

    // Give the freed thread to the next queued job (delta-priority rule).
    const QueuedJob next = popQueuedJob(*container);
    if (next.ctx != nullptr) {
        startJob(*container, next.ctx, next.attempt);
    } else if (container->draining && container->busy == 0 &&
               container->queuedTotal == 0) {
        eraseContainerSlot(*container);
    }
    // `container` may be recycled from here on; don't touch it.

    const int slot = slotOf(ctx, attempt);
    if (slot < 0)
        return; // abandoned attempt (timeout / hedge lost): discard

    if (crashed) {
        // The container died mid-processing; the response is lost.
        failAttempt(ctx, attempt, FailureKind::Crash);
        return;
    }
    if (faultsEnabled_ && faultConfig_.callFailureProbability > 0.0 &&
        callFaultRng_.bernoulli(faultConfig_.callFailureProbability)) {
        failAttempt(ctx, attempt, FailureKind::Transient);
        return;
    }
    deliverCall(ctx, slot);
}

// A call attempt produced a response: record the microservice latency
// sample, settle the hedge race, and resume the dependency graph.
void
Simulation::deliverCall(CallContext *ctx, int slot)
{
    const MicroserviceProfile &profile = catalog_.profile(ctx->ms);
    ctx->procDone = now();
    ctx->receiveTime = ctx->attempts[slot].receiveTime;

    // Ground-truth microservice latency sample: queueing + processing +
    // transmission (§2.2 includes transmission in L_i).
    const double own_ms =
        toMillis(ctx->procDone - ctx->receiveTime) + profile.networkMs;
    scratch_->latencyFor(ctx->ms).add(own_ms);
    if (monitor_ != nullptr)
        monitor_->onMicroserviceLatency(ctx->ms, own_ms,
                                        ctx->req->telemetrySampled);

    if (slot == 1)
        ++metrics_.faults.hedgeWins;
    // Cancel the losing attempt (hedge-winner cancellation): dequeue it
    // if still waiting; a running loser finishes and is discarded.
    cancelAttempt(ctx, 1 - slot);
    ctx->attempts[slot] = CallContext::AttemptSlot{};

    ctx->stageIdx = 0;
    launchStage(ctx);
}

void
Simulation::launchStage(CallContext *ctx)
{
    const auto &stages = *ctx->stages;
    const auto &flat = scratch_->stageFlat[ctx->req->serviceIndex];

    while (static_cast<std::size_t>(ctx->stageIdx) < stages.size()) {
        const auto &stage = stages[static_cast<std::size_t>(ctx->stageIdx)];
        int launched = 0;
        for (const DependencyGraph::Call &call : stage) {
            int copies = static_cast<int>(call.multiplicity);
            const double frac =
                call.multiplicity - static_cast<double>(copies);
            if (frac > 0.0 && rng_.bernoulli(frac))
                ++copies;
            for (int copy = 0; copy < copies; ++copy) {
                CallContext *child = scratch_->contexts.acquire();
                child->req = ctx->req;
                child->ms = call.callee;
                child->parent = ctx;
                child->stages = flat[call.callee];
                child->clientSend = now();
                ++launched;
                issueCall(child);
            }
        }
        if (launched > 0) {
            ctx->pendingChildren = launched;
            return; // resume when the stage completes
        }
        ++ctx->stageIdx; // all multiplicities rounded to zero
    }
    completeContext(ctx);
}

void
Simulation::completeContext(CallContext *ctx)
{
    const SimTime send_time = now();
    const MicroserviceProfile &profile = catalog_.profile(ctx->ms);
    const SimTime network = toSimTime(profile.networkMs);

    if (ctx->req->traced && spans_ != nullptr) {
        CallSpan span;
        span.request = ctx->req->id;
        span.service = ctx->req->service;
        span.caller =
            ctx->parent ? ctx->parent->ms : kInvalidMicroservice;
        span.callee = ctx->ms;
        span.clientSend = ctx->clientSend;
        span.clientReceive = send_time + network;
        span.serverReceive = ctx->receiveTime;
        span.serverSend = send_time;
        spans_->record(span);
    }

    CallContext *parent = ctx->parent;
    RequestState *req = ctx->req;
    scratch_->releaseCtx(ctx);
    propagateCompletion(parent, req, network);
}

// A call ran out of retry budget: the caller receives an error. The
// request keeps flowing (degraded response) but is marked failed —
// no downstream work of this call executes, no latency sample or span
// is recorded for it.
void
Simulation::failCall(CallContext *ctx)
{
    ++metrics_.faults.callsFailed;
    ctx->req->failed = true;
    const SimTime network = toSimTime(catalog_.profile(ctx->ms).networkMs);
    CallContext *parent = ctx->parent;
    RequestState *req = ctx->req;
    scratch_->releaseCtx(ctx);
    propagateCompletion(parent, req, network);
}

void
Simulation::propagateCompletion(CallContext *parent, RequestState *req,
                                SimTime network)
{
    if (parent != nullptr) {
        events_.postAfter(network,
                          EventRecord{.p1 = parent, .type = kEvChildDone});
    } else {
        events_.postAfter(network,
                          EventRecord{.p1 = req, .type = kEvRequestDone});
    }
}

void
Simulation::onChildDone(CallContext *parent)
{
    ERMS_ASSERT(parent->pendingChildren > 0);
    if (--parent->pendingChildren == 0) {
        ++parent->stageIdx;
        launchStage(parent);
    }
}

void
Simulation::finishRequest(RequestState *req)
{
    const SimTime t = now();
    const double latency_ms = toMillis(t - req->arrival);
    const std::uint64_t minute = t / kMinuteUs;

    // Lazily resolved pointers into the metrics maps: the maps keep
    // their create-on-first-touch semantics (an unobserved service has
    // no entry), but steady-state requests pay an array index instead
    // of a hash probe per lookup.
    ServiceMetricCache &cache = metricCache_[req->serviceIndex];

    if (req->failed) {
        // Failed requests violate their SLA by definition; they carry
        // no meaningful latency, so they are accounted separately (see
        // SimMetrics::sloViolationRate).
        ++metrics_.requestsFailed;
        if (minute >= static_cast<std::uint64_t>(config_.warmupMinutes)) {
            if (cache.failed == nullptr)
                cache.failed = &metrics_.failedByService[req->service];
            ++*cache.failed;
        }
        if (monitor_ != nullptr)
            monitor_->onRequestFailed(req->service);
        scratch_->releaseReq(req);
        return;
    }
    ++metrics_.requestsCompleted;

    if (cache.byMinute == nullptr)
        cache.byMinute = &metrics_.endToEndByMinute[req->service];
    cache.byMinute->add(minute, latency_ms);
    if (minute >= static_cast<std::uint64_t>(config_.warmupMinutes)) {
        if (cache.endToEnd == nullptr)
            cache.endToEnd = &metrics_.endToEndMs[req->service];
        cache.endToEnd->add(latency_ms);
    }
    if (monitor_ != nullptr) {
        const double sla = services_[req->serviceIndex].slaMs;
        monitor_->onRequestComplete(req->service, latency_ms,
                                    sla > 0.0 && latency_ms > sla,
                                    req->telemetrySampled);
    }

    scratch_->releaseReq(req);
}

// ---------------------------------------------------------------------
// Fault injection and resilience
// ---------------------------------------------------------------------

int
Simulation::slotOf(const CallContext *ctx, std::uint64_t attempt) const
{
    if (attempt == 0)
        return -1;
    if (ctx->attempts[0].id == attempt)
        return 0;
    if (ctx->attempts[1].id == attempt)
        return 1;
    return -1;
}

void
Simulation::dequeueAttempt(CallContext *ctx, int slot)
{
    CallContext::AttemptSlot &attempt = ctx->attempts[slot];
    if (!attempt.queued || attempt.container == nullptr)
        return;
    for (auto &queue : attempt.container->queues) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->ctx == ctx && it->attempt == attempt.id) {
                queue.erase(it);
                --attempt.container->queuedTotal;
                refreshLoadKey(*attempt.container);
                attempt.queued = false;
                return;
            }
        }
    }
    ERMS_ASSERT_MSG(false, "queued attempt missing from its queue");
}

void
Simulation::cancelAttempt(CallContext *ctx, int slot)
{
    if (ctx->attempts[slot].id == 0)
        return;
    dequeueAttempt(ctx, slot);
    ctx->attempts[slot] = CallContext::AttemptSlot{};
}

void
Simulation::onAttemptTimeout(CallContext *ctx, std::uint64_t attempt)
{
    if (slotOf(ctx, attempt) < 0)
        return; // already delivered, failed, or replaced
    // A running attempt is abandoned: its thread finishes the job but
    // the result is discarded (work is not preempted).
    failAttempt(ctx, attempt, FailureKind::Timeout);
}

void
Simulation::maybeHedge(CallContext *ctx, std::uint64_t attempt)
{
    // Launch the hedge only if the primary attempt that armed this
    // timer is still the one in flight and nothing has answered yet.
    if (ctx->attempts[0].id != attempt || ctx->attempts[1].id != 0)
        return;
    ++metrics_.faults.hedgesLaunched;
    if (monitor_ != nullptr)
        monitor_->onHedge(ctx->ms);
    launchAttempt(ctx, 1);
}

void
Simulation::failAttempt(CallContext *ctx, std::uint64_t attempt,
                        FailureKind kind)
{
    const int slot = slotOf(ctx, attempt);
    if (slot < 0)
        return;
    switch (kind) {
      case FailureKind::Timeout:
        ++metrics_.faults.callTimeouts;
        if (monitor_ != nullptr)
            monitor_->onTimeout(ctx->ms);
        break;
      case FailureKind::Transient:
        ++metrics_.faults.transientFailures;
        if (monitor_ != nullptr)
            monitor_->onTransientFailure(ctx->ms);
        break;
      case FailureKind::Crash:
        ++metrics_.faults.crashFailures;
        if (monitor_ != nullptr)
            monitor_->onCrashFailure(ctx->ms);
        break;
    }
    dequeueAttempt(ctx, slot);
    ctx->attempts[slot] = CallContext::AttemptSlot{};

    if (ctx->attempts[1 - slot].id != 0)
        return; // the hedge race partner is still in flight

    if (ctx->retriesUsed < resilience_.maxRetries) {
        ++ctx->retriesUsed;
        ++metrics_.faults.callRetries;
        if (monitor_ != nullptr)
            monitor_->onRetry(ctx->ms);
        // Exponential backoff with uniform jitter, drawn from the
        // resilience stream so it never perturbs workload randomness.
        double backoff_ms =
            resilience_.retryBackoffMs *
            std::pow(resilience_.retryBackoffMultiplier,
                     ctx->retriesUsed - 1);
        if (resilience_.retryJitter > 0.0)
            backoff_ms *=
                1.0 + resilience_.retryJitter * resilienceRng_.uniform();
        // Both slots are now empty: the call is quiescent until the
        // retry fires, so carrying ctx without a guard is safe.
        events_.postAfter(std::max<SimTime>(1, toSimTime(backoff_ms)),
                          EventRecord{.p1 = ctx, .type = kEvRetryLaunch});
        return;
    }
    failCall(ctx);
}

void
Simulation::onCrashEvent(std::uint64_t victim_draw)
{
    // Deterministic victim order: microservice id (the dense table is
    // id-ascending by construction), then container id within each
    // deployment.
    std::vector<ContainerState *> candidates;
    for (const Deployment &dep : deployments_) {
        for (ContainerState *container : dep.slots) {
            if (!container->draining)
                candidates.push_back(container);
        }
    }
    if (candidates.empty())
        return;
    crashContainer(
        *candidates[victim_draw % candidates.size()]);
}

void
Simulation::crashContainer(ContainerState &victim)
{
    ++metrics_.faults.containerCrashes;
    if (monitor_ != nullptr)
        monitor_->onContainerCrash(victim.ms);
    victim.crashed = true;
    markDraining(victim);
    --deployments_[victim.ms].live;

    // Capacity is lost immediately: countPool()/containerCount() drop,
    // so controllers observe the loss and the ordinary scaling path
    // (applyPlan/setContainerCount) replaces the capacity on its next
    // pass even without auto-restart.
    const MicroserviceProfile &profile = catalog_.profile(victim.ms);
    HostState &host = hosts_[victim.host];
    host.cpuAllocated -= profile.resources.cpuCores;
    host.memAllocated -= profile.resources.memoryMb;
    refreshMemUtil(host);
    --host.containerCount;

    // Queued work fails over (resilience permitting).
    std::vector<QueuedJob> lost;
    for (const auto &queue : victim.queues)
        for (const QueuedJob &job : queue)
            lost.push_back(job);
    for (const QueuedJob &job : lost)
        failAttempt(job.ctx, job.attempt, FailureKind::Crash);
    for (auto &queue : victim.queues)
        queue.clear(); // drop stale leftovers, if any
    victim.queuedTotal = 0;
    refreshLoadKey(victim);

    // Model the kubelet restarting the pod after a delay; the restart
    // then pays the usual containerStartupMs before accepting work.
    if (faultConfig_.restartDelayMs >= 0.0) {
        events_.postAfter(
            std::max<SimTime>(1, toSimTime(faultConfig_.restartDelayMs)),
            EventRecord{.a = victim.ms, .b = victim.dedicatedService,
                        .type = kEvContainerRestart});
    }

    // In-flight jobs keep their threads until completion; finishJob
    // discards their results and erases the container once drained.
    if (victim.busy == 0)
        eraseContainerSlot(victim);
}

void
Simulation::installFaultSchedule(SimTime horizon)
{
    if (!faultsEnabled_)
        return;
    const FaultSchedule schedule =
        buildFaultSchedule(faultConfig_, config_.hostCount, horizon);
    if (monitor_ != nullptr)
        monitor_->recordFaultSchedule(schedule.crashes.size(),
                                      schedule.slowdowns.size());
    for (const CrashEvent &crash : schedule.crashes) {
        events_.post(crash.at,
                     EventRecord{.a = crash.victimDraw, .type = kEvCrash});
    }
    for (const SlowdownWindow &window : schedule.slowdowns) {
        events_.post(window.start,
                     EventRecord{.a = window.host, .type = kEvSlowdownStart});
        events_.post(window.end,
                     EventRecord{.a = window.host, .type = kEvSlowdownEnd});
    }
}

// ---------------------------------------------------------------------
// Telemetry scraping
// ---------------------------------------------------------------------

// Record the gauge series straight from live state, on the simulation
// thread: hosts in id order, then every microservice ever deployed in
// id order with live, busy and queued summed over its non-draining
// slots. Strictly read-only with respect to simulation state: no RNG
// draws, no request events — attaching a monitor cannot change what the
// simulation computes, only what observers get to see.
void
Simulation::scrapeTelemetry()
{
    ERMS_ASSERT(monitor_ != nullptr);
    for (const HostState &host : hosts_)
        monitor_->recordHostUtil(host.id, hostCpuUtil(host),
                                 hostMemUtil(host));
    for (MicroserviceId ms = 0;
         static_cast<std::size_t>(ms) < deployments_.size(); ++ms) {
        const Deployment &dep = deployments_[ms];
        if (!dep.everDeployed)
            continue;
        int live = 0;
        int busy = 0;
        std::size_t queued = 0;
        for (const ContainerState *container : dep.slots) {
            if (container->draining)
                continue;
            ++live;
            busy += container->busy;
            queued += container->queuedTotal;
        }
        monitor_->recordDeployment(ms, live, queued, busy);
    }
    monitor_->takeSnapshot(now());
}

void
Simulation::scheduleScrape(SimTime at, SimTime horizon)
{
    if (at > horizon)
        return;
    events_.post(at, EventRecord{.a = horizon, .type = kEvScrape});
}

// ---------------------------------------------------------------------
// Minute bookkeeping and the main loop
// ---------------------------------------------------------------------

void
Simulation::onMinuteBoundary()
{
    const std::uint64_t minute = static_cast<std::uint64_t>(currentMinute_);

    // Close the utilization integrals for the elapsed minute.
    std::vector<double> host_cpu_avg(hosts_.size(), 0.0);
    std::vector<double> host_mem_avg(hosts_.size(), 0.0);
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        HostState &host = hosts_[i];
        noteBusyChange(host, 0.0); // flush integral to now
        const double avg_busy =
            host.busyIntegral / static_cast<double>(kMinuteUs);
        host_cpu_avg[i] =
            std::clamp(host.bgCpu + avg_busy / host.cpuCapacity, 0.0, 1.0);
        host_mem_avg[i] = hostMemUtil(host);
        host.busyIntegral = 0.0;
    }

    // Emit profiling records d_i^j per microservice, id ascending —
    // fixed, specified order (the old map traversal emitted records in
    // unspecified hash order, which the goldens now pin away).
    for (MicroserviceId ms = 0;
         static_cast<std::size_t>(ms) < deployments_.size(); ++ms) {
        Deployment &deployment = deployments_[ms];
        if (!deployment.everDeployed)
            continue;
        int live = 0;
        double cpu_sum = 0.0, mem_sum = 0.0;
        std::uint64_t calls = 0;
        // Slot order is id order: FP addition is not associative, so
        // these sums depend on it.
        for (ContainerState *container : deployment.slots) {
            if (container->draining)
                continue;
            ++live;
            cpu_sum += host_cpu_avg[container->host];
            mem_sum += host_mem_avg[container->host];
            calls += container->callsThisMinute;
            container->callsThisMinute = 0;
        }
        metrics_.containerTimeline[ms].emplace_back(minute, live);
        if (live == 0)
            continue;

        if (static_cast<std::size_t>(ms) >= scratch_->msLatency.size() ||
            scratch_->msLatency[ms].empty())
            continue;
        SampleSet &latency = scratch_->msLatency[ms];

        ProfilingRecord record;
        record.microservice = ms;
        record.minute = minute;
        record.tailLatencyMs = latency.p95();
        record.meanLatencyMs = latency.mean();
        record.sampleCount = latency.count();
        record.perContainerCalls =
            static_cast<double>(calls) / static_cast<double>(live);
        record.cpuUtil = cpu_sum / live;
        record.memUtil = mem_sum / live;
        record.containers = live;
        metrics_.profiling.push_back(record);
    }
    scratch_->flushLatencies();

    lastMinuteArrivalsByIndex_ = arrivalsByIndex_;
    std::fill(arrivalsByIndex_.begin(), arrivalsByIndex_.end(), 0);

    const int ended_minute = currentMinute_;
    ++currentMinute_;

    if (coordinatedPause_) {
        // Hand control back to the coordinator at exactly the callback
        // point: the callback slot and the next boundary post run on
        // resume (advanceToMinuteBoundary), after the coordinator had
        // its turn — so coordinator mutations land at the same event-
        // sequence position as an inline minute callback would.
        pausedMinute_ = ended_minute;
        pauseRequested_ = true;
        return;
    }

    if (minuteCallback_)
        minuteCallback_(*this, ended_minute);

    postNextMinuteBoundary();
}

void
Simulation::postNextMinuteBoundary()
{
    if (currentMinute_ < config_.horizonMinutes) {
        events_.post(static_cast<SimTime>(currentMinute_ + 1) * kMinuteUs,
                     EventRecord{.type = kEvMinuteBoundary});
    }
}

std::vector<ContainerView>
Simulation::containerViews(MicroserviceId ms) const
{
    std::vector<ContainerView> views;
    if (static_cast<std::size_t>(ms) >= deployments_.size())
        return views;
    const Deployment &dep = deployments_[ms];
    views.reserve(dep.slots.size());
    for (const ContainerState *container : dep.slots) {
        ContainerView view;
        view.id = container->id;
        view.host = container->host;
        view.dedicatedService = container->dedicatedService;
        view.threads = container->threads;
        view.busy = container->busy;
        view.queued = container->queuedTotal;
        view.draining = container->draining;
        view.crashed = container->crashed;
        view.readyAt = container->readyAt;
        views.push_back(view);
    }
    return views;
}

std::size_t
Simulation::roundRobinCursor(MicroserviceId ms) const
{
    return static_cast<std::size_t>(ms) < deployments_.size()
               ? deployments_[ms].rrCursor
               : 0;
}

double
Simulation::observedRate(ServiceId service) const
{
    auto it = serviceIndex_.find(service);
    if (it == serviceIndex_.end())
        return 0.0;
    return static_cast<double>(lastMinuteArrivalsByIndex_[it->second]);
}

double
Simulation::serviceP95Ms(ServiceId service) const
{
    const auto it = metrics_.endToEndByMinute.find(service);
    if (currentMinute_ == 0 || it == metrics_.endToEndByMinute.end())
        return 0.0;
    return it->second.window(static_cast<std::uint64_t>(currentMinute_ - 1))
        .p95();
}

double
Simulation::microserviceTailMs(MicroserviceId ms) const
{
    if (currentMinute_ == 0)
        return 0.0;
    // The ended minute's records are the tail of the profiling list.
    const auto ended = static_cast<std::uint64_t>(currentMinute_ - 1);
    const auto &records = metrics_.profiling;
    for (auto it = records.rbegin();
         it != records.rend() && it->minute == ended; ++it) {
        if (it->microservice == ms)
            return it->tailLatencyMs;
    }
    return 0.0;
}

// The engine-hot path: one typed record in, one handler out. Keeping
// this a flat switch over POD payloads (instead of a std::function per
// event) is what makes the simulator allocation-free per event; see
// docs/event_engine.md.
void
Simulation::dispatchEvent(const EventRecord &event)
{
    switch (event.type) {
      case kEvArrival: {
        const std::size_t index = static_cast<std::size_t>(event.a);
        startRequest(index);
        scheduleArrival(index);
        break;
      }
      case kEvArrivalRecheck:
        scheduleArrival(static_cast<std::size_t>(event.a));
        break;
      case kEvAttemptNetwork:
        routeAttempt(static_cast<CallContext *>(event.p1), event.a,
                     /*count_call=*/true);
        break;
      case kEvAttemptTimeout:
        onAttemptTimeout(static_cast<CallContext *>(event.p1), event.a);
        break;
      case kEvHedgeTimer:
        maybeHedge(static_cast<CallContext *>(event.p1), event.a);
        break;
      case kEvContainerReady:
        onContainerReady(static_cast<MicroserviceId>(event.a),
                         static_cast<ContainerId>(event.b));
        break;
      case kEvJobFinish:
        finishJob(static_cast<CallContext *>(event.p1), event.a,
                  static_cast<ContainerState *>(event.p2));
        break;
      case kEvRetryLaunch:
        launchAttempt(static_cast<CallContext *>(event.p1), 0);
        break;
      case kEvChildDone:
        onChildDone(static_cast<CallContext *>(event.p1));
        break;
      case kEvRequestDone:
        finishRequest(static_cast<RequestState *>(event.p1));
        break;
      case kEvMinuteBoundary:
        onMinuteBoundary();
        break;
      case kEvCrash:
        onCrashEvent(event.a);
        break;
      case kEvSlowdownStart: {
        const HostId host = static_cast<HostId>(event.a);
        ++hosts_[host].activeSlowdowns;
        ++metrics_.faults.slowdownWindows;
        if (monitor_ != nullptr)
            monitor_->onSlowdownWindow(host);
        break;
      }
      case kEvSlowdownEnd:
        --hosts_[static_cast<HostId>(event.a)].activeSlowdowns;
        break;
      case kEvContainerRestart: {
        const MicroserviceId ms = static_cast<MicroserviceId>(event.a);
        ++metrics_.faults.containerRestarts;
        if (monitor_ != nullptr)
            monitor_->onContainerRestart(ms);
        addContainer(ms, static_cast<ServiceId>(event.b));
        redistributeBacklog(ms);
        break;
      }
      case kEvScrape: {
        scrapeTelemetry();
        const SimTime interval = std::max<SimTime>(
            1, toSimTime(monitor_->config().scrapeIntervalSec * 1000.0));
        scheduleScrape(now() + interval, /*horizon=*/event.a);
        break;
      }
    }
}

void
Simulation::setCoordinatedPause(bool on)
{
    ERMS_ASSERT_MSG(!ran_, "setCoordinatedPause must precede beginRun()");
    coordinatedPause_ = on;
}

void
Simulation::beginRun()
{
    ERMS_ASSERT_MSG(!ran_, "Simulation::run may only be called once");
    ran_ = true;

    runHorizon_ = static_cast<SimTime>(config_.horizonMinutes) * kMinuteUs;
    // Both timer delays are fixed from here on (setResilienceConfig
    // must precede the run), so each timer stream gets a FIFO lane.
    if (resilience_.timeoutMs > 0.0)
        timeoutLane_ = events_.addLane(toSimTime(resilience_.timeoutMs));
    if (resilience_.hedgeDelayMs > 0.0)
        hedgeLane_ = events_.addLane(toSimTime(resilience_.hedgeDelayMs));
    // Fault schedule first: with faults disabled this adds no events,
    // keeping the event sequence identical to a fault-free build.
    installFaultSchedule(runHorizon_);
    for (std::size_t i = 0; i < services_.size(); ++i)
        scheduleArrival(i);
    events_.post(kMinuteUs, EventRecord{.type = kEvMinuteBoundary});

    if (monitor_ != nullptr) {
        // Baseline scrape at t=0 (all counters zero) so the first
        // interval scrape already yields a meaningful rate delta.
        scrapeTelemetry();
        const SimTime interval = std::max<SimTime>(
            1, toSimTime(monitor_->config().scrapeIntervalSec * 1000.0));
        scheduleScrape(interval, runHorizon_);
    }
}

void
Simulation::run()
{
    ERMS_ASSERT_MSG(!coordinatedPause_,
                    "coordinated simulations step via advanceToMinuteBoundary");
    beginRun();
    metrics_.eventsDispatched += events_.drain(
        runHorizon_, pauseRequested_,
        [this](const EventRecord &event) { dispatchEvent(event); });
}

int
Simulation::advanceToMinuteBoundary()
{
    ERMS_ASSERT_MSG(coordinatedPause_ && ran_,
                    "advanceToMinuteBoundary requires setCoordinatedPause + "
                    "beginRun");
    if (pauseRequested_) {
        // Resume: run the deferred callback slot for the minute that
        // just ended, then post the next boundary — the exact sequence
        // onMinuteBoundary performs inline in uncoordinated runs, so
        // any events the callback posts get the same seq numbers.
        pauseRequested_ = false;
        const int ended_minute = pausedMinute_;
        pausedMinute_ = -1;
        if (minuteCallback_)
            minuteCallback_(*this, ended_minute);
        postNextMinuteBoundary();
    }

    // Dispatch to the next pause: the queue hands back the tail of a
    // paused batch, so the resume re-enters at the exact next record.
    metrics_.eventsDispatched += events_.drain(
        runHorizon_, pauseRequested_,
        [this](const EventRecord &event) { dispatchEvent(event); });
    return pausedMinute_;
}

} // namespace erms
