/**
 * @file
 * Property/fuzz tests for the event engine. Random post/drain
 * interleavings — same-timestamp bursts, cascades posted during
 * dispatch, horizon-segmented draining, stop-and-resume draining — are
 * checked against a naive reference model (linear scan for the
 * (time, seq) minimum) across bucket geometries from the production
 * wheel down to 1 x 1 and a single 2^40 us bucket (in effect a sorted
 * list). Cascades also post through two timer lanes, one shorter and
 * one longer than the production window. Geometry and lanes cannot
 * change the (time, seq) order, so every geometry must match the
 * reference exactly. Structure counters then pin what order cannot:
 * lane records never reach the far-list scan, and the cursor opens only
 * non-empty buckets. Also covers cross-thread isolation of independent
 * queues (a ThreadSanitizer target, driven through ParallelRunner).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runner/parallel_runner.hpp"
#include "sim/event_queue.hpp"

namespace erms {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/** Wheel geometries (bucket count, bucket width in us): the production
 *  default; degenerate tiny wheels, where window rotation and far-list
 *  pours happen constantly; and one bucket spanning 2^40 us — a sorted
 *  list whose dispatch-time posts are all set aside and folded into
 *  it. */
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

/** Fixed delays of the two timer lanes every fuzz queue registers:
 *  100 us is beyond the 1 x 1, 2 x 1 and 4 x 2 windows and inside the
 *  others; 70,000 us is beyond every window, the production 65,536 us
 *  one included, except the single 2^40 us bucket. */
constexpr SimTime kLaneDelays[2] = {100, 70000};

/** Lane of a child: -1 for a plain postAfter, else an index into
 *  kLaneDelays. */
constexpr int kNoLane = -1;

std::uint64_t
generation(std::uint64_t id)
{
    return id >> kGenShift;
}

/**
 * The cascade rule: a dispatched event spawns 0–2 children at small
 * offsets (including 0 — children at the parent's own timestamp), up to
 * three generations deep. About one child in three is a timer posted
 * through one of the two lanes, at that lane's fixed delay. Purely a
 * function of the parent id, so both sides compute it independently;
 * termination is guaranteed by the generation cap.
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
        const std::uint64_t child =
            ((gen + 1) << kGenShift) | (h & ((1ull << kGenShift) - 1));
        const int lane = static_cast<int>((h >> 40) % 6);
        if (lane < 2)
            fn(kLaneDelays[lane], child, lane);
        else
            fn(h % 64, child, kNoLane); // 0 keeps same-time cascades common
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
            forEachChild(cur.id, [&](SimTime d, std::uint64_t cid, int) {
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
 * fuzz id in `a`, and dispatching it posts the children, timers through
 * the queue's lanes (or, with use_lanes false, the same timers through
 * postAfter, which must give the same order). With
 * stop_every > 0, dispatch also raises drain()'s stop flag on about
 * one event in stop_every (picked by a hash of the dispatch count, so
 * a wrongly repeated record cannot stop forever); drainUntil() then
 * resumes after each stop, checking that the stop left now() at the
 * stopping event's time.
 */
class EngineDriver
{
  public:
    explicit EngineDriver(EventQueue &q, std::uint64_t stop_every = 0,
                          bool use_lanes = true)
        : q_(q), stopEvery_(stop_every), useLanes_(use_lanes)
    {
        for (std::size_t i = 0; i < 2; ++i)
            lanes_[i] = q_.addLane(kLaneDelays[i]);
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
    const std::vector<SimTime> &times() const { return times_; }
    std::size_t stops() const { return stops_; }
    std::size_t lanePosts() const { return lanePosts_; }

  private:
    void
    fire(const EventRecord &rec)
    {
        order_.push_back(rec.a);
        times_.push_back(rec.time);
        forEachChild(rec.a, [&](SimTime d, std::uint64_t cid, int lane) {
            if (lane == kNoLane || !useLanes_) {
                q_.postAfter(d, EventRecord{.a = cid});
                return;
            }
            q_.postLane(lanes_[lane], EventRecord{.a = cid});
            ++lanePosts_;
        });
        if (stopEvery_ != 0 &&
            mix(order_.size() ^ 0x5709ull) % stopEvery_ == 0) {
            stop_ = true;
            stoppedAt_ = rec.time;
        }
    }

    EventQueue &q_;
    std::uint64_t stopEvery_;
    bool useLanes_;
    EventQueue::Lane lanes_[2];
    bool stop_ = false;
    SimTime stoppedAt_ = 0;
    std::size_t stops_ = 0;
    std::size_t lanePosts_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<std::uint64_t> order_;
    std::vector<SimTime> times_;
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
    EXPECT_GT(driver.lanePosts(), 0u);
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
    // A stop may land anywhere in a batch, also in one that follows a
    // fold of set-aside records into the bucket. Resuming must
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
    // posts behind a queued record the cursor must not have moved to,
    // with and without stops.
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

/** Drain everything, recording each record's payload `a`. */
std::vector<std::uint64_t>
drainAll(EventQueue &q)
{
    std::vector<std::uint64_t> order;
    const bool no_stop = false;
    q.drain(kForever, no_stop,
            [&](const EventRecord &rec) { order.push_back(rec.a); });
    return order;
}

TEST(EventEngineLanes, PostAfterIdlingBehindAnAdvancedWindow)
{
    // A drain that finds nothing before its horizon idles now() to the
    // horizon and leaves the window where it was: it jumps to a far
    // record only at or before the horizon. Lane posts from there lie
    // beyond the window and wait in their lanes, whether they fall
    // before the far record, tied with it or after it.
    EventQueue q(4, 2); // 8 us window
    const EventQueue::Lane early = q.addLane(5);
    const EventQueue::Lane tied = q.addLane(90);
    const EventQueue::Lane beyond = q.addLane(200);
    q.post(100, EventRecord{.a = 1});
    const bool no_stop = false;
    EXPECT_EQ(q.drain(10, no_stop, [](const EventRecord &) {}), 0u);
    ASSERT_EQ(q.now(), 10u); // the window now starts at 96

    q.postLane(beyond, EventRecord{.a = 2}); // t = 210
    q.postLane(tied, EventRecord{.a = 3});   // t = 100, after a = 1
    q.postLane(early, EventRecord{.a = 4});  // t = 15
    q.post(100, EventRecord{.a = 5});
    q.postLane(beyond, EventRecord{.a = 6}); // t = 210, after a = 2
    EXPECT_EQ(q.pending(), 6u);
    EXPECT_EQ(drainAll(q), (std::vector<std::uint64_t>{4, 1, 3, 5, 2, 6}));
    EXPECT_EQ(q.now(), kForever);
}

TEST(EventEngineLanes, DelayShorterThanTheSpanStaysInTheWheel)
{
    // A lane whose delay fits in the window never holds a record: every
    // post takes post()'s path and interleaves with plain posts by
    // (time, seq), also for posts made while dispatching.
    EventQueue q; // 65,536 us window
    const EventQueue::Lane lane = q.addLane(3);
    q.postLane(lane, EventRecord{.a = 1}); // t = 3
    q.postAfter(3, EventRecord{.a = 2});   // t = 3
    q.postAfter(1, EventRecord{.a = 3});   // t = 1
    q.postLane(lane, EventRecord{.a = 4}); // t = 3
    std::vector<std::uint64_t> order;
    const bool no_stop = false;
    q.drain(kForever, no_stop, [&](const EventRecord &rec) {
        order.push_back(rec.a);
        if (rec.a == 3) {
            q.postLane(lane, EventRecord{.a = 5}); // t = 4
            q.postAfter(3, EventRecord{.a = 6});   // t = 4
            q.postAfter(2, EventRecord{.a = 7});   // t = 3, after a = 4
        }
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 1, 2, 4, 7, 5, 6}));
    EXPECT_EQ(q.farScanned(), 0u);
}

TEST(EventEngineLanes, EqualTimesWithFarRecordsKeepSeqOrder)
{
    // Lane and far-list records at one time meet in one bucket at the
    // window jump and dispatch by seq. The far scan reads only the
    // far-list records: three at the first jump, one at the second.
    EventQueue q; // 65,536 us window
    const EventQueue::Lane lane = q.addLane(100000);
    q.post(100000, EventRecord{.a = 1});
    q.postLane(lane, EventRecord{.a = 2});
    q.post(100000, EventRecord{.a = 3});
    q.postLane(lane, EventRecord{.a = 4});
    q.post(200000, EventRecord{.a = 5});
    EXPECT_EQ(drainAll(q), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.farScanned(), 4u);
}

/** Buckets a full drain from t = 0 must open: one per distinct
 *  bucket-width slot of the dispatched times, except slot 0, where the
 *  cursor starts. */
std::size_t
nonEmptyBucketsAfterTheFirst(const std::vector<SimTime> &times,
                             SimTime width)
{
    std::set<SimTime> slots;
    for (const SimTime t : times)
        slots.insert(t / width);
    return slots.size() - slots.count(0);
}

TEST(EventEngineLanes, StructureCountersPinLanesAndBitmap)
{
    // Order alone cannot see where a record waited or how the cursor
    // found it. Full drains of the lane fuzz, with and without stops:
    //  - the cursor opens exactly the non-empty buckets (a step onto an
    //    empty bucket would add to the count);
    //  - the far scan never reads a lane record: posting the same timers
    //    through postAfter instead gives the same order, and the far
    //    scan then reads more; on the production wheel, where plain
    //    posts never leave the window, it reads nothing with lanes.
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        for (const auto &[buckets, width] : kGeometries) {
            for (const std::uint64_t stop_every : {0u, 7u}) {
                EventQueue laned(buckets, width);
                EngineDriver with_lanes(laned, stop_every);
                EventQueue plain(buckets, width);
                EngineDriver without(plain, stop_every,
                                     /*use_lanes=*/false);
                for (const auto &[t, id] : makeBatch(seed, 300, 0, 256)) {
                    with_lanes.seed(t, id);
                    without.seed(t, id);
                }
                with_lanes.drainUntil(kForever);
                without.drainUntil(kForever);
                ASSERT_EQ(with_lanes.order(), expected);
                ASSERT_EQ(without.order(), expected);

                const SimTime span = static_cast<SimTime>(buckets) * width;
                const std::string where =
                    "seed " + std::to_string(seed) + " buckets=" +
                    std::to_string(buckets) + " width=" +
                    std::to_string(width) + " stop_every=" +
                    std::to_string(stop_every);
                EXPECT_EQ(laned.bucketsOpened(),
                          nonEmptyBucketsAfterTheFirst(with_lanes.times(),
                                                       width))
                    << where;
                EXPECT_EQ(plain.bucketsOpened(), laned.bucketsOpened())
                    << where;
                if (span < kLaneDelays[1]) {
                    EXPECT_LT(laned.farScanned(), plain.farScanned())
                        << where;
                } else {
                    EXPECT_EQ(laned.farScanned(), plain.farScanned())
                        << where;
                }
                if (buckets == 2048 && width == 32) {
                    EXPECT_EQ(laned.farScanned(), 0u) << where;
                    EXPECT_GT(plain.farScanned(), 0u) << where;
                }
            }
        }
    }
}

TEST(EventEngineCursor, NeverMovesToABucketAfterTheHorizon)
{
    // A drain whose horizon lies before the next queued record's bucket
    // leaves the cursor where it is, so posts between the horizon and
    // that record land at or after the cursor. Had the cursor moved to
    // the record's bucket, they would lie behind it.
    EventQueue q(8, 4);              // 32 us window of 4 us buckets
    q.post(20, EventRecord{.a = 3}); // bucket 5, starting at 20
    const bool no_stop = false;
    EXPECT_EQ(q.drain(11, no_stop, [](const EventRecord &) {}), 0u);
    EXPECT_EQ(q.now(), 11u);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.bucketsOpened(), 0u);
    q.post(11, EventRecord{.a = 1}); // at the horizon, bucket 2
    q.post(12, EventRecord{.a = 2}); // one us later, bucket 3
    EXPECT_EQ(drainAll(q), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.bucketsOpened(), 3u); // buckets 2, 3 and 5, in order
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
