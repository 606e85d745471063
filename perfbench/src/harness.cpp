#include "harness.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
        throw std::runtime_error("CLOCK_PROCESS_CPUTIME_ID is unavailable");
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        throw std::runtime_error("CLOCK_THREAD_CPUTIME_ID is unavailable");
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/** Keeps the reference kernel's result alive past the optimizer. */
volatile double referenceSink = 0.0;

} // namespace

double
referenceKernelMs(std::uint64_t seed)
{
    const double start = threadCpuSeconds();
    constexpr int kItems = 20000;
    constexpr std::uint64_t kKeys = 40000;
    std::unordered_map<std::uint64_t, double> map;
    std::vector<double> values;
    std::uint64_t x = seed | 1;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < kItems; ++i) {
        const std::uint64_t r = next();
        map[r % kKeys] += i;
        values.push_back(static_cast<double>(r % 100000) * 0.37);
    }
    std::sort(values.begin(), values.end());
    double acc = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto it = map.find(next() % kKeys);
        if (it != map.end())
            acc += it->second;
        acc += std::sqrt(values[i]);
    }
    referenceSink = referenceSink + acc;
    return (threadCpuSeconds() - start) * 1e3;
}

double
fastestReferenceMs(int runs)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < runs; ++r)
        best = std::min(best,
                        referenceKernelMs(static_cast<std::uint64_t>(r + 1)));
    return best;
}

double
parallelReferenceMs(int threads, int runs)
{
    std::vector<double> ms(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < ms.size(); ++t)
        pool.emplace_back([&ms, t, runs] { ms[t] = fastestReferenceMs(runs); });
    for (std::thread &th : pool)
        th.join();
    double sum = 0.0;
    for (double v : ms)
        sum += v;
    return sum / static_cast<double>(threads);
}

double
hostScale(std::vector<double> reference_ms)
{
    return kReferenceIdleMs / median(std::move(reference_ms)).value;
}

Percentile
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::invalid_argument("percentile of an empty sample set");
    if (!(q > 0.0 && q < 1.0))
        throw std::invalid_argument("percentile rank must lie in (0, 1)");
    const std::size_t n = values.size();
    // A tail percentile is only reported when >= 10 samples lie beyond
    // it: n * (1 - q) >= 10, i.e. p90 needs 100 samples.
    if (q > 0.5 && static_cast<double>(n) * (1.0 - q) < 10.0 - 1e-9)
        throw std::invalid_argument(
            "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
            " needs at least " +
            std::to_string(static_cast<int>(std::ceil(10.0 / (1.0 - q) - 1e-9))) +
            " samples, got " + std::to_string(n));
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return Percentile{values[index], n};
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

namespace {

/** Spans this thread has open, innermost last (per tracer instance). */
thread_local std::vector<std::pair<const Tracer *, int>> tlsOpen;

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const char *name, std::int64_t step, int parent)
{
    if (!enabled_)
        return -1;
    if (parent == kAuto) {
        parent = -1;
        for (auto it = tlsOpen.rbegin(); it != tlsOpen.rend(); ++it) {
            if (it->first == this) {
                parent = it->second;
                break;
            }
        }
    }
    const std::int64_t start = nowNs();
    int id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, start, start, parent, step});
    }
    tlsOpen.emplace_back(this, id);
    return id;
}

void
Tracer::end(int span)
{
    if (!enabled_ || span < 0)
        return;
    const std::int64_t stop = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(span)].endNs = stop;
    }
    for (auto it = tlsOpen.rbegin(); it != tlsOpen.rend(); ++it) {
        if (it->first == this && it->second == span) {
            tlsOpen.erase(std::next(it).base());
            break;
        }
    }
}

int
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, std::int64_t step, int parent)
{
    if (!enabled_)
        return -1;
    using std::chrono::duration_cast;
    using std::chrono::nanoseconds;
    Span span{name, duration_cast<nanoseconds>(start - origin_).count(),
              duration_cast<nanoseconds>(end - origin_).count(), parent,
              step};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(static_cast<double>(span.endNs - span.startNs) /
                          1e6);
    return out;
}

std::vector<double>
Tracer::selfDurationsMs(const std::string &name) const
{
    const std::vector<Span> all = spans();
    const std::vector<std::int64_t> self = selfTimesNs(all);
    std::vector<double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].name == name)
            out.push_back(static_cast<double>(self[i]) / 1e6);
    return out;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    const std::vector<Span> all = spans();
    const std::vector<std::int64_t> self = selfTimesNs(all);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].name == name)
            total += self[i];
    return static_cast<double>(total) / 1e9;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::vector<Span> all = spans();
    const std::vector<std::int64_t> self = selfTimesNs(all);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(out,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"step\": %lld, "
                     "\"self_ns\": %lld}\n",
                     i, s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent,
                     static_cast<long long>(s.step),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(out) == 0;
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0 &&
            static_cast<std::size_t>(span.parent) < spans.size())
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);

    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].startNs;
        const std::int64_t hi = spans[i].endNs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        std::int64_t covered = 0;
        std::int64_t runStart = 0;
        std::int64_t runEnd = 0;
        bool open = false;
        for (auto [start, end] : kids) {
            start = std::max(start, lo);
            end = std::min(end, hi);
            if (end <= start)
                continue;
            if (open && start <= runEnd) {
                runEnd = std::max(runEnd, end);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = start;
            runEnd = end;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

// ---------------------------------------------------------------------
// Fingerprint, simulated outcome, host facts
// ---------------------------------------------------------------------

void
Fingerprint::add(std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (value >> (8 * byte)) & 0xffU;
        hash_ *= 0x100000001b3ULL;
    }
}

void
Fingerprint::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

double
procStatusMb(const char *key)
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return -1.0;
    char line[256];
    long kb = -1;
    const std::size_t len = std::strlen(key);
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, key, len) == 0) {
            std::sscanf(line + len, " %ld", &kb);
            break;
        }
    }
    std::fclose(status);
    return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

SimOutcome
simOutcome(const erms::SimMetrics &m,
           const std::vector<std::pair<erms::ServiceId, double>> &slas,
           Fingerprint &fp)
{
    fp.add(m.eventsDispatched);
    double bad = 0.0;
    double finished = 0.0;
    for (const auto &[service, slaMs] : slas) {
        const auto e2e = m.endToEndMs.find(service);
        const auto failed = m.failedByService.find(service);
        const double ok = e2e == m.endToEndMs.end()
                              ? 0.0
                              : static_cast<double>(e2e->second.count());
        const double fail = failed == m.failedByService.end()
                                ? 0.0
                                : static_cast<double>(failed->second);
        const double rate = m.sloViolationRate(service, slaMs);
        bad += rate * (ok + fail);
        finished += ok + fail;
        fp.add(rate);
    }
    const erms::FaultStats &f = m.faults;
    for (std::uint64_t count :
         {f.containerCrashes, f.containerRestarts, f.slowdownWindows,
          f.firstAttempts, f.callRetries, f.hedgesLaunched, f.hedgeWins,
          f.callTimeouts, f.transientFailures, f.crashFailures, f.callsFailed,
          m.requestsFailed, m.requestsGenerated})
        fp.add(count);

    SimOutcome out;
    out.violationPct = finished > 0.0 ? 100.0 * bad / finished : 0.0;
    out.failedPct = m.requestsGenerated > 0
                        ? 100.0 * static_cast<double>(m.requestsFailed) /
                              static_cast<double>(m.requestsGenerated)
                        : 0.0;
    return out;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

} // namespace perfbench
