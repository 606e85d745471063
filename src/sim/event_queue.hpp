/**
 * @file
 * Discrete-event engine core: typed event records in a two-level
 * calendar queue with deterministic (time, insertion-seq) FIFO
 * tie-breaking for simultaneous events.
 *
 * Design (see docs/event_engine.md):
 *  - Events are plain-old-data EventRecord values: a type tag plus two
 *    payload words and two payload pointers. Scheduling one copies 48
 *    bytes into a recycled bucket vector — no per-event heap
 *    allocation, no callable construction. The owner dispatches records
 *    through its own switch (Simulation::dispatchEvent).
 *  - Time ordering uses a calendar ("timing wheel") of power-of-two
 *    buckets over a sliding window, with a far list for events beyond
 *    the window. Timers with a fixed delay can be posted through FIFO
 *    lanes instead of the far list: each lane is already time-ordered,
 *    so a window jump pours its head in O(moved) instead of rescanning
 *    it. An occupancy bitmap (one bit per bucket) lets the cursor jump
 *    straight to the next non-empty bucket. When a bucket becomes
 *    current it is sorted once (ascending) and consumed through a head
 *    index: spent records stay in place as a stale prefix and the whole
 *    bucket is discarded with one clear() when it drains. Events posted
 *    into the already-sorted current bucket are set aside and inserted
 *    into its unconsumed suffix by (time, seq) before the next batch.
 *    Dispatch order is exactly the strict total order (time, seq) — the
 *    determinism contract every golden table pins — at a steady-state
 *    per-event cost of an index bump plus one comparison.
 *  - A drain moves the cursor only to a bucket that starts at or before
 *    its horizon, and sets now() to the event it takes from there or,
 *    finding none due, to the horizon. So the cursor's bucket starts at
 *    or before now(), and every post lands in it or in a later bucket.
 *  - drain() is the only way events leave the queue. It takes runs of
 *    ready events as batches — zero-copy spans over the sorted bucket,
 *    possibly covering several timestamps — and hands each record to
 *    the owner's dispatch functor, re-entering the bookkeeping only
 *    when a freshly posted event must interleave or the owner asks to
 *    stop.
 */

#ifndef ERMS_SIM_EVENT_QUEUE_HPP
#define ERMS_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace erms {

/**
 * One scheduled event. POD: owners define their own type tags and
 * payload conventions; the queue only reads/stamps time and seq.
 *
 * Packed to 48 bytes (b narrowed to 32 bits, which covers every id the
 * simulator routes through it): the record is copied on post and moved
 * during bucket sorts, so its size is hot-loop memory traffic.
 */
struct EventRecord
{
    SimTime time = 0;       ///< absolute dispatch time (stamped by post)
    std::uint64_t seq = 0;  ///< insertion order (stamped by post)
    std::uint64_t a = 0;    ///< payload word
    void *p1 = nullptr;     ///< payload pointer
    void *p2 = nullptr;     ///< payload pointer
    std::uint32_t b = 0;    ///< payload word (ids are 32-bit)
    std::uint32_t type = 0; ///< owner-defined type tag
};

static_assert(sizeof(EventRecord) == 48, "EventRecord is hot-loop "
                                         "memory traffic; keep it packed");

/**
 * Two-level calendar queue of EventRecords, dispatching in exactly
 * (time, seq) ascending order.
 */
class EventQueue
{
  public:
    /**
     * @param bucket_count  number of wheel buckets (power of two).
     * @param bucket_width  time span of one bucket in microseconds
     *                      (power of two). The wheel window covers
     *                      bucket_count * bucket_width microseconds.
     */
    explicit EventQueue(std::size_t bucket_count = 2048,
                        SimTime bucket_width = 32);

    /** Schedule a typed record at absolute simulated time t (>= now).
     *  rec.time and rec.seq are overwritten by the queue. */
    void post(SimTime t, EventRecord rec);

    /** Schedule a typed record delay microseconds from now. */
    void postAfter(SimTime delay, EventRecord rec);

    /** Handle of a timer lane, returned by addLane(). */
    struct Lane
    {
        std::uint32_t index = 0;
    };

    /**
     * Register a FIFO lane for timers that always fire `delay`
     * microseconds after they are posted. Since now() never decreases,
     * a lane's posts arrive in time order, so records beyond the window
     * wait in the lane and are poured into the wheel by popping its
     * head, never rescanned like the far list.
     */
    Lane addLane(SimTime delay);

    /** Exactly postAfter(delay, rec) for the lane's delay: same time,
     *  same seq, same dispatch order; only the storage differs. */
    void postLane(Lane lane, EventRecord rec);

    /** Current simulated time (time of the last dispatched event, or
     *  the horizon a drain idled to). */
    SimTime now() const { return now_; }

    bool empty() const { return pending_ == 0; }

    /** Records still queued. While drain() runs, the records already
     *  handed out in its current batch are not counted, including the
     *  ones not dispatched yet. */
    std::size_t pending() const { return pending_; }

    /**
     * Dispatch events in (time, seq) order, calling dispatch(record)
     * for each one with time <= horizon (inclusive — an event posted
     * during dispatch at exactly the horizon runs in the same call).
     * dispatch may post() further events; now() is the record's time
     * while it runs.
     *
     * `stop` is read after every dispatched event. Once it is true,
     * drain returns with now() at that event's time and every event
     * not yet dispatched still queued, so the next drain resumes in
     * exactly the order an uninterrupted one would have used.
     * Otherwise drain returns when no event at or before the horizon
     * is left, with now() == max(now(), horizon).
     * @return number of events dispatched.
     */
    template <class F>
    std::uint64_t drain(SimTime horizon, const bool &stop, F &&dispatch);

    /** Test counters that pin the structure rather than the order:
     *  far-list records read by window jumps (lane records are never
     *  counted, they are popped), and buckets the cursor moved to
     *  (once per move, however many records the bucket holds). */
    std::uint64_t farScanned() const { return farScanned_; }
    std::uint64_t bucketsOpened() const { return bucketsOpened_; }

  private:
    struct Earlier
    {
        bool
        operator()(const EventRecord &a, const EventRecord &b) const
        {
            if (a.time != b.time)
                return a.time < b.time;
            return a.seq < b.seq;
        }
    };

    /** Set t to the time of the next record, which becomes the sorted
     *  cursor bucket's head; the set-aside records are folded in first.
     *  Moves the cursor only to a bucket that starts at or before
     *  `horizon`, and returns false when no record lies in such a
     *  bucket; the head it finds may still lie after the horizon. */
    bool peekTime(SimTime horizon, SimTime &t);

    /**
     * Take the next run of ready events with times <= horizon: a
     * zero-copy span of the sorted cursor bucket, in exact (time, seq)
     * order. On success advances now() to the first record's time;
     * otherwise leaves events queued, advances now() to the horizon and
     * returns false. Posting while a span is live never invalidates it:
     * posts into the sorted bucket are set aside in spill_.
     */
    bool nextBatch(SimTime horizon, std::span<const EventRecord> &out);

    /**
     * After dispatching one record of a batch: must a freshly posted
     * event run before `next` (the batch's next record)? Only a record
     * set aside for the cursor bucket can — posts into later buckets
     * sort after the whole span — and it interleaves only with a
     * strictly smaller time: a batch starts with nothing set aside, so
     * an equal-time spill record carries a higher seq than every record
     * of the span and runs after the whole run of that timestamp.
     */
    bool
    interleavePending(const EventRecord &next) const
    {
        return spillMin_ < next.time;
    }

    /** Put the last `rest` records of the current batch back. They
     *  still sit in the sorted bucket, so rewinding the head re-serves
     *  them in the same order. */
    void
    returnTail(std::size_t rest)
    {
        pending_ += rest;
        wheelCount_ += rest;
        activeHead_ -= rest;
    }

    /** Insert the set-aside records into the sorted cursor bucket's
     *  unconsumed suffix, each at its (time, seq) position. */
    void foldSpill();

    /** Move far-list and lane events that now fall inside the window
     *  into their buckets; recompute farMin_. */
    void pourFar();

    /** Bucket of a time inside the window. */
    std::size_t
    bucketOf(SimTime t) const
    {
        return static_cast<std::size_t>((t - windowStart_) / bucketWidth_);
    }

    /** Time at which a bucket of the window starts. */
    SimTime
    bucketStart(std::size_t index) const
    {
        return windowStart_ + static_cast<SimTime>(index) * bucketWidth_;
    }

    /** Append to a wheel bucket and mark it occupied. */
    void
    pushBucket(std::size_t index, const EventRecord &rec)
    {
        buckets_[index].push_back(rec);
        occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
        ++wheelCount_;
    }

    void
    clearOccupied(std::size_t index)
    {
        occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
    }

    /** First occupied bucket at or after `from`. The caller guarantees
     *  one exists (wheel records lie at or after the cursor). */
    std::size_t
    nextOccupied(std::size_t from) const
    {
        std::size_t word = from >> 6;
        std::uint64_t bits = occupied_[word] & (~std::uint64_t{0}
                                                << (from & 63));
        while (bits == 0)
            bits = occupied_[++word];
        return (word << 6) | static_cast<std::size_t>(std::countr_zero(bits));
    }

    /** A FIFO of timer records beyond the window, in (time, seq) order:
     *  [head, records.size()) is live, the prefix was poured. */
    struct TimerLane
    {
        SimTime delay = 0;
        std::vector<EventRecord> records;
        std::size_t head = 0;
    };

    static constexpr SimTime kNoFar = std::numeric_limits<SimTime>::max();

    // calendar wheel ----------------------------------------------------
    std::vector<std::vector<EventRecord>> buckets_;
    std::size_t bucketCount_;
    SimTime bucketWidth_;
    SimTime span_;          ///< bucketCount_ * bucketWidth_
    SimTime windowStart_ = 0;
    /** Current bucket; it starts at or before now(). */
    std::size_t cursor_ = 0;
    /** Current bucket sorted ascending; consumed entries are the
     *  prefix [0, activeHead_), discarded in one clear() when the
     *  bucket drains. Leaving consumed records in place is what makes
     *  zero-copy batch spans possible. */
    bool activeSorted_ = false;
    /** First unconsumed entry of the current bucket. Nonzero only for
     *  buckets_[cursor_], and only while activeSorted_. */
    std::size_t activeHead_ = 0;
    std::size_t wheelCount_ = 0; ///< records currently in buckets/spill
    /** One bit per bucket, set while its vector is non-empty (stale
     *  prefix included): max(1, bucketCount_ / 64) words. */
    std::vector<std::uint64_t> occupied_;

    /** Records posted into the sorted cursor bucket, in post order,
     *  waiting for peekTime() to fold them in; spillMin_ is their
     *  earliest time (kNoFar when none). */
    std::vector<EventRecord> spill_;
    SimTime spillMin_ = kNoFar;

    // overflow levels ---------------------------------------------------
    std::vector<EventRecord> far_;   ///< time >= windowStart_ + span_
    std::vector<TimerLane> lanes_;   ///< each time >= windowStart_ + span_
    /** Earliest record in far_ and the lane heads; kNoFar when none. */
    SimTime farMin_ = kNoFar;

    std::uint64_t farScanned_ = 0;
    std::uint64_t bucketsOpened_ = 0;

    std::size_t pending_ = 0;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------
// Hot path, defined inline: post/peek/batch run once (or more) per
// simulated event, and drain() is instantiated in the owner's
// translation unit with its dispatch switch — without these in the
// header every event pays several opaque call boundaries. Cold paths
// (construction, pourFar) stay in event_queue.cpp.
// ---------------------------------------------------------------------

inline void
EventQueue::post(SimTime t, EventRecord rec)
{
    ERMS_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    // Checked before the far test, whose unsigned difference would
    // hide a post before the window.
    ERMS_ASSERT_MSG(t >= bucketStart(cursor_),
                    "the cursor's bucket must start at or before now()");
    rec.time = t;
    rec.seq = next_seq_++;
    ++pending_;

    if (t - windowStart_ >= span_) {
        farMin_ = std::min(farMin_, t);
        far_.push_back(rec);
        return;
    }
    const std::size_t index = bucketOf(t);
    if (index == cursor_ && activeSorted_) {
        // A live batch may span the sorted bucket, so it must not move.
        // The sorted cursor bucket is non-empty, so its bit is set.
        spill_.push_back(rec);
        spillMin_ = std::min(spillMin_, t);
        ++wheelCount_;
    } else {
        pushBucket(index, rec);
    }
}

inline void
EventQueue::postAfter(SimTime delay, EventRecord rec)
{
    post(now_ + delay, rec);
}

inline void
EventQueue::postLane(Lane lane, EventRecord rec)
{
    TimerLane &timers = lanes_[lane.index];
    const SimTime t = now_ + timers.delay;
    if (t - windowStart_ < span_) { // now() never lies before the window
        post(t, rec);
        return;
    }
    // Beyond the window: a far record, kept in post order. Every lane
    // record lies beyond the window too, and was posted no later, so
    // the lane stays sorted by (time, seq).
    ERMS_ASSERT_MSG(timers.head == timers.records.size() ||
                        timers.records.back().time <= t,
                    "lane posts must arrive in time order");
    rec.time = t;
    rec.seq = next_seq_++;
    ++pending_;
    farMin_ = std::min(farMin_, t);
    timers.records.push_back(rec);
}

inline void
EventQueue::foldSpill()
{
    // No batch is live, so the bucket's records may move. Spill records
    // were posted after the bucket was sorted: each one's upper bound
    // is after every record of its time already there.
    std::vector<EventRecord> &bucket = buckets_[cursor_];
    const auto head = static_cast<std::ptrdiff_t>(activeHead_);
    for (const EventRecord &rec : spill_)
        bucket.insert(std::upper_bound(bucket.begin() + head, bucket.end(),
                                       rec, Earlier{}),
                      rec);
    spill_.clear();
    spillMin_ = kNoFar;
}

inline bool
EventQueue::peekTime(SimTime horizon, SimTime &t)
{
    if (pending_ == 0)
        return false;
    if (!spill_.empty())
        foldSpill();
    for (;;) {
        std::vector<EventRecord> &bucket = buckets_[cursor_];
        if (activeHead_ == bucket.size()) {
            // Bucket fully consumed (or plain empty): discard the stale
            // prefix in one shot, then advance. The clear must happen
            // before any cursor move or window jump so a later pour
            // into this bucket can't resurrect consumed records.
            bucket.clear();
            clearOccupied(cursor_);
            activeHead_ = 0;
            activeSorted_ = false;
            // Move only to a bucket that starts at or before the
            // horizon: nextBatch() then sets now() to at least its
            // start, which keeps the cursor's bucket at or before now().
            if (wheelCount_ == 0) {
                // Everything pending lives in the far list or the
                // lanes: jump the window straight to the earliest far
                // record instead of walking empty rotations.
                if (farMin_ > horizon)
                    return false;
                windowStart_ = farMin_ - farMin_ % span_;
                cursor_ = bucketOf(farMin_);
                pourFar(); // farMin_ lands in the cursor's bucket
            } else {
                // A wheel record sits in a later bucket of the window:
                // posts land at or after the cursor and nothing is set
                // aside, so a set bit lies after the cursor and the
                // scan stays in the window.
                const std::size_t next = nextOccupied(cursor_ + 1);
                if (bucketStart(next) > horizon)
                    return false;
                cursor_ = next;
            }
            ++bucketsOpened_;
            continue;
        }
        if (!activeSorted_) {
            // Sort ascending; consumption walks activeHead_ forward.
            // activeHead_ is 0 here (nonzero only while sorted).
            std::sort(bucket.begin(), bucket.end(), Earlier{});
            activeSorted_ = true;
        }
        t = bucket[activeHead_].time;
        return true;
    }
}

inline bool
EventQueue::nextBatch(SimTime horizon, std::span<const EventRecord> &out)
{
    SimTime t;
    if (!peekTime(horizon, t) || t > horizon) {
        if (now_ < horizon)
            now_ = horizon;
        return false;
    }
    now_ = t;
    // Hand out the bucket's whole unconsumed suffix up to the horizon,
    // zero-copy — multiple timestamps in one span. Posts during
    // dispatch go to spill_ (the bucket is sorted), so the span
    // survives until the next nextBatch() call; drain()'s
    // interleavePending() check decides when a spilled event forces an
    // early re-entry.
    std::vector<EventRecord> &bucket = buckets_[cursor_];
    std::size_t end = activeHead_ + 1;
    while (end < bucket.size() && bucket[end].time <= horizon)
        ++end;
    const std::size_t n = end - activeHead_;
    pending_ -= n;
    wheelCount_ -= n;
    out = std::span<const EventRecord>(bucket.data() + activeHead_, n);
    activeHead_ = end;
    return true;
}

template <class F>
std::uint64_t
EventQueue::drain(SimTime horizon, const bool &stop, F &&dispatch)
{
    // The per-event cost inside a batch is the dispatch call plus one
    // clock store, one stop test and one spill probe. When a spilled
    // event must run before the batch's next record, the unconsumed
    // tail goes back and the loop takes a fresh batch — the resulting
    // order is exactly one-at-a-time (time, seq) extraction.
    std::uint64_t dispatched = 0;
    std::span<const EventRecord> batch;
    while (nextBatch(horizon, batch)) {
        std::size_t consumed = 0;
        while (consumed < batch.size()) {
            const EventRecord &event = batch[consumed];
            now_ = event.time;
            dispatch(event);
            ++consumed;
            if (stop) {
                returnTail(batch.size() - consumed);
                return dispatched + consumed;
            }
            if (consumed < batch.size() &&
                interleavePending(batch[consumed])) {
                returnTail(batch.size() - consumed);
                break;
            }
        }
        dispatched += consumed;
    }
    return dispatched;
}

} // namespace erms

#endif // ERMS_SIM_EVENT_QUEUE_HPP
