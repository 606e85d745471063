/**
 * @file
 * Tests for the discrete-event engine: ordering, FIFO tie-breaking,
 * horizon semantics, and posting from within dispatch. Every test
 * drives the queue through drain(), the only way events leave it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"

namespace erms {
namespace {

/** Never set: drains that run to their horizon. */
const bool kNoStop = false;

/** Records the payload word of every dispatched event. */
struct Recorder
{
    std::vector<std::uint64_t> order;
    void operator()(const EventRecord &rec) { order.push_back(rec.a); }
};

constexpr SimTime kForever = ~static_cast<SimTime>(0);

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    q.post(30, EventRecord{.a = 3});
    q.post(10, EventRecord{.a = 1});
    q.post(20, EventRecord{.a = 2});
    Recorder rec;
    EXPECT_EQ(q.drain(kForever, kNoStop, rec), 3u);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo)
{
    EventQueue q;
    for (std::uint64_t i = 0; i < 5; ++i)
        q.post(100, EventRecord{.a = i});
    Recorder rec;
    q.drain(kForever, kNoStop, rec);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NowTracksDispatchedEvent)
{
    EventQueue q;
    SimTime seen = 0;
    q.post(42, EventRecord{});
    q.drain(100, kNoStop, [&](const EventRecord &) { seen = q.now(); });
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(q.now(), 100u); // idled on to the horizon
}

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue q;
    q.post(10, EventRecord{});
    q.post(20, EventRecord{});
    q.post(30, EventRecord{});
    int fired = 0;
    EXPECT_EQ(q.drain(20, kNoStop, [&](const EventRecord &) { ++fired; }),
              2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u); // advanced to the horizon
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, HorizonInclusive)
{
    EventQueue q;
    q.post(20, EventRecord{});
    EXPECT_EQ(q.drain(20, kNoStop, [](const EventRecord &) {}), 1u);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue q;
    int chain = 0;
    SimTime last = 0;
    q.post(0, EventRecord{});
    q.drain(kForever, kNoStop, [&](const EventRecord &) {
        last = q.now();
        if (++chain < 5)
            q.postAfter(10, EventRecord{});
    });
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(last, 40u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsBeyondHorizonScheduledDuringRunStay)
{
    EventQueue q;
    q.post(5, EventRecord{.a = 1});
    Recorder rec;
    q.drain(50, kNoStop, [&](const EventRecord &event) {
        rec(event);
        if (event.a == 1)
            q.post(100, EventRecord{.a = 2});
    });
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(q.pending(), 1u);
    q.drain(kForever, kNoStop, rec);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1, 2}));
}

TEST(EventQueue, SchedulingInThePastIsInternalError)
{
    EventQueue q;
    q.post(100, EventRecord{});
    q.drain(100, kNoStop, [](const EventRecord &) {});
    EXPECT_THROW(q.post(50, EventRecord{}), std::logic_error);
}

TEST(EventQueue, StopInsideMergedBatchResumesInOrder)
{
    // A posts X@110 and Y@105. Y must run before S, so S goes back
    // and X and Y are folded into the bucket; Y, S and X then leave as
    // one span. Stopping after S must keep X queued, and S must not
    // run again.
    EventQueue q;
    q.post(100, EventRecord{.a = 'A'});
    q.post(110, EventRecord{.a = 'S'});
    bool stop = false;
    Recorder rec;
    const auto dispatch = [&](const EventRecord &event) {
        rec(event);
        if (event.a == 'A') {
            q.post(110, EventRecord{.a = 'X'});
            q.post(105, EventRecord{.a = 'Y'});
        }
        stop = event.a == 'S';
    };
    EXPECT_EQ(q.drain(kForever, stop, dispatch), 3u);
    EXPECT_EQ(q.now(), 110u);
    EXPECT_EQ(q.pending(), 1u);
    stop = false;
    EXPECT_EQ(q.drain(kForever, stop, dispatch), 1u);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{'A', 'Y', 'S', 'X'}));
}

// ---------------------------------------------------------------------
// Horizon boundary: the documented contract is that the horizon is
// INCLUSIVE, also for events posted during dispatch — an event posted
// exactly at the horizon while drain() runs fires in the same call.
// ---------------------------------------------------------------------

TEST(EventQueueHorizon, ScheduledAtHorizonDuringDispatchFires)
{
    EventQueue q;
    q.post(10, EventRecord{.a = 1});
    Recorder rec;
    EXPECT_EQ(q.drain(50, kNoStop,
                      [&](const EventRecord &event) {
                          rec(event);
                          if (event.a != 1)
                              return;
                          q.post(50, EventRecord{.a = 3});  // == horizon
                          q.post(51, EventRecord{.a = 99}); // > horizon
                          q.post(20, EventRecord{.a = 2});
                      }),
              3u);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 1u); // the 51 event stays queued
}

TEST(EventQueueHorizon, RepeatedRunUntilSameHorizonConsistent)
{
    EventQueue q;
    int fired = 0;
    const auto count = [&](const EventRecord &) { ++fired; };
    q.drain(100, kNoStop, count); // idle to the horizon
    EXPECT_EQ(q.now(), 100u);
    // Posting exactly at now()/horizon afterwards is legal and a second
    // drain to the same horizon still dispatches it.
    q.post(100, EventRecord{});
    EXPECT_EQ(q.drain(100, kNoStop, count), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 100u);
    EXPECT_EQ(q.drain(100, kNoStop, count), 0u); // idempotent once drained
}

TEST(EventQueueHorizon, SchedulingBehindAnAdvancedWindowStaysOrdered)
{
    // Idling toward a far event leaves the calendar window behind
    // now(): a drain jumps the window only to a record due by its
    // horizon. Posts between now() and that event must still dispatch,
    // in order, before it.
    EventQueue q(/*bucket_count=*/4, /*bucket_width=*/4);
    q.post(1'000'000, EventRecord{.a = 3}); // park one event far out
    Recorder rec;
    q.drain(500'000, kNoStop, rec); // hunt advances the window, finds 1e6
    q.post(500'001, EventRecord{.a = 1});
    q.post(600'000, EventRecord{.a = 2});
    EXPECT_EQ(q.drain(1'000'000, kNoStop, rec), 3u);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace erms
