/**
 * @file
 * Property/fuzz tests for the event engine. Random post/drain
 * interleavings — same-timestamp bursts, cascades posted during
 * dispatch, horizon-segmented draining, stop-and-resume draining — are
 * checked against a naive reference model (linear scan for the
 * (time, seq) minimum) across bucket geometries from the production
 * wheel down to 1 x 1 and a single 2^40 us bucket (in effect a sorted
 * list). Geometry cannot change the (time, seq) order, so every
 * geometry must match the reference exactly. Also covers cross-thread
 * isolation of independent queues (a ThreadSanitizer target, driven
 * through ParallelRunner).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "runner/parallel_runner.hpp"
#include "sim/event_queue.hpp"

namespace erms {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/** Wheel geometries (bucket count, bucket width in us): the production
 *  default; degenerate tiny wheels, where window rotation, far-list
 *  pours and cursor rewinds happen constantly; and one bucket spanning
 *  2^40 us — a sorted list whose dispatch-time posts all go through
 *  the spill heap. */
const std::pair<std::size_t, SimTime> kGeometries[] = {
    {2048, 32}, {1, 1}, {2, 1}, {4, 2}, {8, 16}, {1024, 1}, {1, 1ull << 40}};

/** splitmix64: all workload randomness is derived from event ids with
 *  this, so the reference model and the engine generate identical
 *  cascades without sharing RNG state (and independent of dispatch
 *  implementation). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kGenShift = 56;

std::uint64_t
generation(std::uint64_t id)
{
    return id >> kGenShift;
}

/**
 * The cascade rule: a dispatched event spawns 0–2 children at small
 * offsets (including 0 — children at the parent's own timestamp), up to
 * three generations deep. Purely a function of the parent id, so both
 * sides compute it independently; termination is guaranteed by the
 * generation cap.
 */
template <typename Fn>
void
forEachChild(std::uint64_t id, Fn &&fn)
{
    const std::uint64_t gen = generation(id);
    if (gen >= 3)
        return;
    const int children = static_cast<int>(mix(id) % 3);
    for (int k = 0; k < children; ++k) {
        const std::uint64_t h = mix(id ^ (0x100000001b3ull * (k + 1)));
        const SimTime delay = h % 64; // 0 keeps same-time cascades common
        const std::uint64_t child =
            ((gen + 1) << kGenShift) | (h & ((1ull << kGenShift) - 1));
        fn(delay, child);
    }
}

struct RefEvent
{
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
};

/** Naive reference: pending events in a flat vector; the next event is
 *  found by scanning for the (time, seq) minimum, which is trivially
 *  the specified dispatch order. */
class ReferenceModel
{
  public:
    void
    seed(SimTime t, std::uint64_t id)
    {
        pending_.push_back(RefEvent{t, seq_++, id});
    }

    /** Dispatch everything with time <= horizon; record ids. */
    void
    drainUntil(SimTime horizon)
    {
        for (;;) {
            std::size_t best = pending_.size();
            for (std::size_t i = 0; i < pending_.size(); ++i) {
                if (pending_[i].time > horizon)
                    continue;
                if (best == pending_.size() ||
                    pending_[i].time < pending_[best].time ||
                    (pending_[i].time == pending_[best].time &&
                     pending_[i].seq < pending_[best].seq))
                    best = i;
            }
            if (best == pending_.size())
                return;
            const RefEvent cur = pending_[best];
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(best));
            order_.push_back(cur.id);
            forEachChild(cur.id, [&](SimTime d, std::uint64_t cid) {
                pending_.push_back(RefEvent{cur.time + d, seq_++, cid});
            });
        }
    }

    std::size_t pending() const { return pending_.size(); }
    const std::vector<std::uint64_t> &order() const { return order_; }

  private:
    std::vector<RefEvent> pending_;
    std::vector<std::uint64_t> order_;
    std::uint64_t seq_ = 0;
};

/**
 * Drives the same cascade through an EventQueue: a record carries its
 * fuzz id in `a`, and dispatching it posts the children. With
 * stop_every > 0, dispatch also raises drain()'s stop flag on about
 * one event in stop_every (picked by a hash of the dispatch count, so
 * a wrongly repeated record cannot stop forever); drainUntil() then
 * resumes after each stop, checking that the stop left now() at the
 * stopping event's time.
 */
class EngineDriver
{
  public:
    explicit EngineDriver(EventQueue &q, std::uint64_t stop_every = 0)
        : q_(q), stopEvery_(stop_every)
    {
    }

    void
    seed(SimTime t, std::uint64_t id)
    {
        q_.post(t, EventRecord{.a = id});
    }

    void
    drainUntil(SimTime horizon)
    {
        for (;;) {
            stop_ = false;
            dispatched_ += q_.drain(horizon, stop_,
                                    [this](const EventRecord &rec) {
                                        fire(rec);
                                    });
            if (!stop_)
                break;
            ++stops_;
            EXPECT_EQ(q_.now(), stoppedAt_);
        }
        EXPECT_EQ(dispatched_, order_.size());
    }

    const std::vector<std::uint64_t> &order() const { return order_; }
    std::size_t stops() const { return stops_; }

  private:
    void
    fire(const EventRecord &rec)
    {
        order_.push_back(rec.a);
        forEachChild(rec.a, [&](SimTime d, std::uint64_t cid) {
            q_.postAfter(d, EventRecord{.a = cid});
        });
        if (stopEvery_ != 0 &&
            mix(order_.size() ^ 0x5709ull) % stopEvery_ == 0) {
            stop_ = true;
            stoppedAt_ = rec.time;
        }
    }

    EventQueue &q_;
    std::uint64_t stopEvery_;
    bool stop_ = false;
    SimTime stoppedAt_ = 0;
    std::size_t stops_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<std::uint64_t> order_;
};

/** Initial (time, id) batch for one fuzz round. Times are masked to a
 *  narrow range so same-timestamp bursts are the norm, not the
 *  exception. */
std::vector<std::pair<SimTime, std::uint64_t>>
makeBatch(std::uint64_t seed, std::size_t count, SimTime base,
          SimTime range)
{
    std::vector<std::pair<SimTime, std::uint64_t>> batch;
    batch.reserve(count);
    std::uint64_t s = mix(seed);
    for (std::size_t i = 0; i < count; ++i) {
        s = mix(s + i);
        const SimTime t = base + s % range;
        const std::uint64_t id = (s >> 8) & ((1ull << kGenShift) - 1);
        batch.emplace_back(t, id);
    }
    return batch;
}

std::vector<std::uint64_t>
engineFullDrain(EventQueue &q, std::uint64_t seed,
                std::uint64_t stop_every = 0)
{
    EngineDriver driver(q, stop_every);
    for (const auto &[t, id] : makeBatch(seed, 300, 0, 256))
        driver.seed(t, id);
    driver.drainUntil(kForever);
    EXPECT_TRUE(q.empty());
    if (stop_every != 0) {
        EXPECT_GT(driver.stops(), 0u);
    }
    return driver.order();
}

std::vector<std::uint64_t>
referenceFullDrain(std::uint64_t seed)
{
    ReferenceModel ref;
    for (const auto &[t, id] : makeBatch(seed, 300, 0, 256))
        ref.seed(t, id);
    ref.drainUntil(std::numeric_limits<SimTime>::max());
    EXPECT_EQ(ref.pending(), 0u);
    return ref.order();
}

TEST(EventEngineFuzz, FullDrainMatchesReference)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        {
            EventQueue q; // production geometry
            EXPECT_EQ(engineFullDrain(q, seed), expected)
                << "seed " << seed << " (default geometry)";
        }
        {
            EventQueue q(1, 1ull << 40);
            EXPECT_EQ(engineFullDrain(q, seed), expected)
                << "seed " << seed << " (sorted list)";
        }
    }
}

TEST(EventEngineFuzz, TinyBucketGeometriesMatchReference)
{
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        for (const auto &[buckets, width] : kGeometries) {
            EventQueue q(buckets, width);
            EXPECT_EQ(engineFullDrain(q, seed), expected)
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;
        }
    }
}

TEST(EventEngineFuzz, StopAndResumeMatchesReference)
{
    // A stop may land anywhere in a batch: in a zero-copy bucket span
    // or in a run merged from the spill or early heap. Resuming must
    // continue the exact reference order — no record dispatched twice,
    // none lost.
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        for (const auto &[buckets, width] : kGeometries) {
            EventQueue q(buckets, width);
            EXPECT_EQ(engineFullDrain(q, seed, /*stop_every=*/7), expected)
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;
        }
    }
}

TEST(EventEngineFuzz, HorizonSegmentedDrainMatchesReference)
{
    // Interleave horizon-bounded drains with fresh batches posted from
    // the advanced clock — exercising post-at-now, post-at-horizon and
    // post-behind-the-advanced-window (early heap) paths, with and
    // without stops.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        for (const std::uint64_t stop_every : {0u, 7u}) {
            ReferenceModel ref;
            EventQueue q(4, 2); // small span: the window rotates every 8
            EngineDriver driver(q, stop_every);

            SimTime horizon = 0;
            for (int segment = 0; segment < 8; ++segment) {
                const std::uint64_t sseed = mix(seed * 131 + segment);
                // Batch anchored at the current clock; range crosses
                // the next horizon so some events land beyond it.
                for (const auto &[t, id] :
                     makeBatch(sseed, 40, q.now(), 200)) {
                    ref.seed(t, id);
                    driver.seed(t, id);
                }
                horizon += 1 + mix(sseed) % 150;
                ref.drainUntil(horizon);
                driver.drainUntil(horizon);
                ASSERT_EQ(driver.order(), ref.order())
                    << "seed " << seed << " stop_every " << stop_every
                    << " segment " << segment;
                ASSERT_EQ(q.pending(), ref.pending());
                ASSERT_EQ(q.now(), horizon);
            }
            ref.drainUntil(kForever);
            driver.drainUntil(kForever);
            EXPECT_EQ(driver.order(), ref.order())
                << "seed " << seed << " stop_every " << stop_every;
            EXPECT_EQ(q.pending(), 0u);
        }
    }
}

TEST(EventEngineFuzz, LongSameTimestampBurstIsFifoAcrossGeometries)
{
    // A burst far larger than any bucket, with neighbours on both
    // sides; insertion order must be preserved exactly.
    std::vector<std::uint64_t> expected;
    expected.push_back(1000);
    for (std::uint64_t i = 0; i < 1000; ++i)
        expected.push_back(i);
    expected.push_back(1001);

    const bool no_stop = false;
    for (const auto &[buckets, width] : kGeometries) {
        EventQueue q(buckets, width);
        q.post(99, EventRecord{.a = 1000});
        for (std::uint64_t i = 0; i < 1000; ++i)
            q.post(100, EventRecord{.a = i});
        q.post(101, EventRecord{.a = 1001});
        std::vector<std::uint64_t> order;
        q.drain(kForever, no_stop,
                [&](const EventRecord &rec) { order.push_back(rec.a); });
        EXPECT_EQ(order, expected)
            << "buckets=" << buckets << " width=" << width;
    }
}

TEST(EventEngineTyped, RecordsRoundTripThroughDrain)
{
    EventQueue q;
    int anchor = 0;
    q.post(5, EventRecord{.a = 11, .p1 = &anchor, .b = 22, .type = 7});
    q.post(3, EventRecord{.a = 1, .type = 9});
    q.post(3, EventRecord{.a = 2, .type = 9}); // same time: FIFO

    std::vector<EventRecord> seen;
    const bool no_stop = false;
    EXPECT_EQ(q.drain(10, no_stop,
                      [&](const EventRecord &rec) { seen.push_back(rec); }),
              3u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].type, 9u);
    EXPECT_EQ(seen[0].a, 1u);
    EXPECT_EQ(seen[0].time, 3u);
    EXPECT_EQ(seen[1].a, 2u);
    EXPECT_EQ(seen[2].type, 7u);
    EXPECT_EQ(seen[2].a, 11u);
    EXPECT_EQ(seen[2].b, 22u);
    EXPECT_EQ(seen[2].p1, &anchor);
    EXPECT_EQ(seen[2].time, 5u);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventEngineThreads, IndependentQueuesAreIsolated)
{
    // Fuzz workloads on concurrent queues (ParallelRunner workers);
    // every run must match the single-threaded reference. With
    // ERMS_SANITIZE=thread this pins "no hidden shared state between
    // engine instances" — the property the parallel experiment runner
    // depends on.
    RunnerOptions options;
    options.workers = 4;
    ParallelRunner runner(options);
    std::vector<std::function<std::vector<std::uint64_t>()>> tasks;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        tasks.emplace_back([seed] {
            EventQueue q(8, 16);
            return engineFullDrain(q, seed, /*stop_every=*/7);
        });
    }
    const auto results = runner.runAll(std::move(tasks));
    ASSERT_EQ(results.size(), 8u);
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        EXPECT_EQ(results[seed], referenceFullDrain(seed))
            << "seed " << seed;
}

} // namespace
} // namespace erms
