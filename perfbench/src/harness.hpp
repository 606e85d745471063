/**
 * @file
 * Shared machinery of the Erms benchmark: percentiles that carry their
 * sample count, an in-memory span recorder with self-time accounting,
 * the metric sheet a workload fills, and a simulated-statistics
 * fingerprint. Everything here lives in the benchmark's own files; the
 * program under test is only ever called through its public headers.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/**
 * CPU seconds used so far by all threads of this process. Time the CPU
 * spends on other processes, or that the hypervisor steals from the vCPU
 * (where the kernel accounts steal time), is not counted.
 */
double processCpuSeconds();

/** CPU seconds used so far by the calling thread. */
double threadCpuSeconds();

/**
 * Thread CPU milliseconds of one run of the benchmark's reference
 * kernel: a fixed mix of hash-map inserts and lookups, a sort and
 * floating-point math over ~1 MB, written here and calling nothing of
 * the program. Contention from other tenants of a shared host (caches,
 * memory bandwidth, the sibling hyperthread) slows it as it slows the
 * program, so timing it beside the program's work measures how fast the
 * host runs at that moment.
 */
double referenceKernelMs(std::uint64_t seed);

/** A fixed value near what referenceKernelMs takes on an idle 4-vCPU VM
 *  (GCC 12, Release). It only sets the units: a host-scaled time reads
 *  as the time on such a host. */
constexpr double kReferenceIdleMs = 3.0;

/** The fastest of `runs` referenceKernelMs runs made now. */
double fastestReferenceMs(int runs);

/** Reference runs per sample taken between episodes or decisions. */
constexpr int kReferenceRuns = 5;

/** Mean over `threads` concurrent threads of each one's
 *  fastestReferenceMs(runs): the speed of the host's vCPUs together. */
double parallelReferenceMs(int threads, int runs);

/**
 * kReferenceIdleMs over the median of `reference_ms`, the reference
 * times sampled through a run. A host-scaled time is a measured time
 * multiplied by this: the time the same work would take on an idle host.
 */
double hostScale(std::vector<double> reference_ms);

/**
 * Run `setup` at least `min_reps` times and until `min_seconds` were
 * spent (at most `max_reps` times); returns each run's seconds. Cheap
 * set-ups repeat more, so their median is steady too.
 */
template <typename F>
std::vector<double>
repeatTimed(F &&setup, int min_reps, double min_seconds, int max_reps)
{
    std::vector<double> seconds;
    double total = 0.0;
    for (int rep = 0; rep < max_reps; ++rep) {
        if (rep >= min_reps && total >= min_seconds)
            break;
        const auto start = Clock::now();
        setup(rep);
        seconds.push_back(secondsSince(start));
        total += seconds.back();
    }
    return seconds;
}

/** A percentile together with the number of samples it was taken from. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
};

/**
 * Nearest-rank quantile q of `values`. A quantile above the median must
 * have at least ten samples beyond it, so p90 needs >= 100 samples;
 * fewer throws std::invalid_argument. An empty input throws too.
 */
Percentile percentile(std::vector<double> values, double q);

/** Median (p50) of `values`, with its sample count. */
inline Percentile
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** One recorded span. Times are nanoseconds since the tracer started. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the parent span, -1 for a root. */
    int parent = -1;
    /** Simulated minute, decision index or episode the span belongs to. */
    std::int64_t step = -1;
};

/**
 * Span recorder. Disabled tracers record nothing and cost one branch per
 * boundary. Spans are kept in memory and written out once, at exit.
 * Thread-safe: shard controllers record from runner worker threads.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). The parent
     *  defaults to the innermost span this thread has open. */
    int begin(const char *name, std::int64_t step, int parent = kAuto);
    void end(int span);

    /** Record an already-measured interval as a closed span. */
    int record(const char *name, Clock::time_point start,
               Clock::time_point end, std::int64_t step, int parent);

    std::vector<Span> spans() const;

    /** Durations in ms of every span with this name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Self times in ms of every span with this name. */
    std::vector<double> selfDurationsMs(const std::string &name) const;

    /** Sum over spans with this name of their self time, in seconds. */
    double selfSeconds(const std::string &name) const;

    /** Write all spans as JSON lines. Returns false on an I/O error. */
    bool write(const std::string &path) const;

    static constexpr int kAuto = -2;

    /** RAII span on the calling thread. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::int64_t step,
              int parent = kAuto)
            : tracer_(tracer), id_(tracer.begin(name, step, parent))
        {
        }
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return id_; }

      private:
        Tracer &tracer_;
        int id_;
    };

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/**
 * Self time of each span: its duration minus the part of it covered by
 * its children. Children may overlap (parallel shard work); their union
 * is subtracted once, clipped to the parent's interval.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples the value was computed from (1 for a single count). */
    std::size_t samples = 1;
};

/** The named metrics one run reports, in insertion-independent order. */
using MetricSheet = std::map<std::string, Metric>;

/** FNV-1a accumulator over the simulated statistics of one episode. */
class Fingerprint
{
  public:
    void add(std::uint64_t value);
    void add(double value);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Request-weighted outcome of one simulated run. */
struct SimOutcome
{
    /** Late successes plus failures over finished requests, in %. */
    double violationPct = 0.0;
    /** Failed over generated requests, in %. */
    double failedPct = 0.0;
};

/**
 * Outcome of `m` for the services in `slas` (id, SLA in ms), using
 * SimMetrics::sloViolationRate. Adds the event count, each service's
 * violation rate, the fault counts and the request counts to `fp`.
 */
SimOutcome simOutcome(const erms::SimMetrics &m,
                      const std::vector<std::pair<erms::ServiceId, double>> &slas,
                      Fingerprint &fp);

/** A field of /proc/self/status ("VmHWM:", "VmRSS:") in MB; -1 if absent. */
double procStatusMb(const char *key);

/** CPUs this process may run on (its affinity mask). */
int availableCpus();

/** Arguments every workload receives. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** What a workload hands back to main(), which prints it as JSON. */
struct RunResult
{
    MetricSheet metrics;
    /** Host-side operations: minute steps and control decisions. */
    std::uint64_t attempted = 0;
    /** Operations that threw or returned an invalid result. */
    std::uint64_t failed = 0;
    /** Output checks; a failed check makes the benchmark exit nonzero. */
    std::vector<std::pair<std::string, bool>> checks;
    /** Free-form workload facts recorded with the provenance. */
    std::map<std::string, std::string> facts;

    void check(const std::string &name, bool ok) { checks.emplace_back(name, ok); }
    void
    set(const std::string &name, double value, const std::string &unit,
        std::size_t samples = 1)
    {
        metrics[name] = Metric{value, unit, samples};
    }
    void
    set(const std::string &name, const Percentile &p, const std::string &unit)
    {
        metrics[name] = Metric{p.value, unit, p.samples};
    }
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
