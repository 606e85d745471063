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
 *    the window and a tiny early heap for events scheduled behind an
 *    already-advanced window. Timers with a fixed delay can be posted
 *    through FIFO lanes instead of the far list: each lane is already
 *    time-ordered, so a window jump pours its head in O(moved) instead
 *    of rescanning it. An occupancy bitmap (one bit per bucket) lets
 *    the cursor jump straight to the next non-empty bucket. When a
 *    bucket becomes current it is sorted once (ascending) and consumed
 *    through a head index: spent records stay in place as a stale
 *    prefix and the whole bucket is discarded with one clear() when it
 *    drains. Events posted into the already-sorted current bucket go
 *    to a small spill heap that interleaves by (time, seq). Dispatch
 *    order is exactly the strict total order (time, seq) — the
 *    determinism contract every golden table pins — at a steady-state
 *    per-event cost of an index bump plus one comparison.
 *  - drain() is the only way events leave the queue. It takes runs of
 *    ready events as batches — usually a zero-copy span over the
 *    sorted bucket, possibly covering several timestamps — and hands
 *    each record to the owner's dispatch functor, re-entering the
 *    bookkeeping only when a freshly posted event must interleave or
 *    the owner asks to stop.
 */

#ifndef ERMS_SIM_EVENT_QUEUE_HPP
#define ERMS_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
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
    struct Later
    {
        bool
        operator()(const EventRecord &a, const EventRecord &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

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

    /**
     * A run of ready events taken out of the queue by nextBatch(), in
     * exact (time, seq) order. Either a zero-copy window over the
     * sorted active bucket (possibly many timestamps) or, when spill or
     * early-heap records take part, one timestamp merged into
     * scratchBatch_ (`merged`). Posting while a batch is live never
     * invalidates it: same-bucket posts go to the spill heap, never
     * into the sorted bucket.
     */
    struct Batch
    {
        const EventRecord *data = nullptr;
        std::size_t count = 0;
        bool merged = false;
    };

    /** Find the next event without popping: returns false when empty,
     *  else sets t to its time and leaves it at a known position
     *  (early_ front, the sorted cursor bucket's head, or the spill
     *  heap's front). */
    bool peekTime(SimTime &t);

    /** Take the next run of ready events with times <= horizon. On
     *  success advances now() to the first record's time; otherwise
     *  leaves events queued, advances now() to the horizon and returns
     *  false. */
    bool nextBatch(SimTime horizon, Batch &out);

    /**
     * After dispatching one record of a zero-copy batch: must a freshly
     * posted event run before `next` (the batch's next record)? Only
     * the spill heap can hold such an event — dispatch-time posts have
     * t >= now(), so they cannot reach the early heap or an earlier
     * bucket — and it interleaves only with a strictly smaller time (an
     * equal-time post carries a higher seq and runs after the whole
     * batch run of that timestamp). Merged batches are single-timestamp,
     * so nothing can interleave with them.
     */
    bool
    interleavePending(const EventRecord &next) const
    {
        return !spill_.empty() && spill_.front().time < next.time;
    }

    /** Put the batch's records from index `consumed` on back into the
     *  queue, each keeping its seq, so they are served again in the
     *  same order. */
    void returnTail(const Batch &batch, std::size_t consumed);

    /** Move far-list and lane events that now fall inside the window
     *  into their buckets; recompute farMin_. */
    void pourFar();

    /** Bucket of a time inside the window. */
    std::size_t
    bucketOf(SimTime t) const
    {
        return static_cast<std::size_t>((t - windowStart_) / bucketWidth_);
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

    /** Merge buffer for nextBatch() runs that interleave spill/early
     *  records (the zero-copy bucket window doesn't apply there). */
    std::vector<EventRecord> scratchBatch_;

    /** Events posted into the current bucket after it was sorted, plus
     *  the unconsumed tail of a merged batch that a stop handed back; a
     *  min-heap on (time, seq) interleaved with the sorted bucket by
     *  full (time, seq) comparison. A zero-copy batch only starts with
     *  an empty spill heap, so while one is live every spill entry was
     *  posted after the sort and carries a higher seq than every sorted
     *  entry — which is what lets interleavePending() compare times
     *  alone. */
    std::vector<EventRecord> spill_;

    // overflow levels ---------------------------------------------------
    std::vector<EventRecord> far_;   ///< time >= windowStart_ + span_
    std::vector<TimerLane> lanes_;   ///< each time >= windowStart_ + span_
    /** Earliest record in far_ and the lane heads; kNoFar when none. */
    SimTime farMin_ = kNoFar;
    std::vector<EventRecord> early_; ///< heap; time < windowStart_

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
    rec.time = t;
    rec.seq = next_seq_++;
    ++pending_;

    if (t < windowStart_) {
        // The wheel advanced past t while hunting for a later event
        // (e.g. the sim idled to a horizon, then scheduled from there).
        // Rare by construction: park in the early heap, which always
        // dispatches before the wheel (early times < windowStart_ <=
        // every wheel/far time).
        early_.push_back(rec);
        std::push_heap(early_.begin(), early_.end(), Later{});
        return;
    }
    if (t - windowStart_ >= span_) {
        farMin_ = std::min(farMin_, t);
        far_.push_back(rec);
        return;
    }
    const std::size_t index = bucketOf(t);
    if (index < cursor_) {
        // Buckets before the cursor are empty (the cursor only advances
        // past drained buckets), so reopening is just a rewind. Drop
        // the current bucket's consumed prefix and fold any spill back
        // into it; it re-sorts as one unit when it becomes current
        // again.
        std::vector<EventRecord> &active = buckets_[cursor_];
        if (activeHead_ > 0) {
            active.erase(active.begin(),
                         active.begin() +
                             static_cast<std::ptrdiff_t>(activeHead_));
            activeHead_ = 0;
        }
        if (!spill_.empty()) {
            active.insert(active.end(), spill_.begin(), spill_.end());
            spill_.clear();
        }
        if (active.empty())
            clearOccupied(cursor_); // a set bit means a non-empty vector
        cursor_ = index;
        activeSorted_ = false;
    }
    if (index == cursor_ && activeSorted_) {
        // The sorted cursor bucket is non-empty, so its bit is set.
        spill_.push_back(rec);
        std::push_heap(spill_.begin(), spill_.end(), Later{});
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
    if (t < windowStart_ || t - windowStart_ < span_) {
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

inline bool
EventQueue::peekTime(SimTime &t)
{
    if (!early_.empty()) {
        t = early_.front().time;
        return true;
    }
    if (pending_ == 0)
        return false;
    for (;;) {
        std::vector<EventRecord> &bucket = buckets_[cursor_];
        if (activeHead_ == bucket.size() && spill_.empty()) {
            // Bucket fully consumed (or plain empty): discard the stale
            // prefix in one shot, then advance. The clear must happen
            // before any cursor move or window jump so a later pour
            // into this bucket can't resurrect consumed records.
            bucket.clear();
            clearOccupied(cursor_);
            activeHead_ = 0;
            activeSorted_ = false;
            if (wheelCount_ == 0) {
                // Everything pending lives in the far list or the
                // lanes: jump the window straight to the earliest far
                // record instead of walking empty rotations.
                windowStart_ = farMin_ - farMin_ % span_;
                cursor_ = bucketOf(farMin_);
                pourFar(); // farMin_ lands in the cursor's bucket
            } else {
                // A wheel record sits in a later bucket of the window:
                // buckets before the cursor are empty and spill records
                // belong to the cursor's bucket, so a set bit lies
                // after the cursor and the scan stays in the window.
                cursor_ = nextOccupied(cursor_ + 1);
            }
            ++bucketsOpened_;
            continue;
        }
        if (!activeSorted_) {
            // Sort ascending; consumption walks activeHead_ forward.
            // The spill heap is necessarily empty here (it only fills
            // after the sort and drains before the cursor moves on),
            // and activeHead_ is 0 (nonzero only while sorted).
            std::sort(bucket.begin(), bucket.end(), Earlier{});
            activeSorted_ = true;
        }
        if (spill_.empty())
            t = bucket[activeHead_].time;
        else if (activeHead_ == bucket.size())
            t = spill_.front().time;
        else
            t = std::min(bucket[activeHead_].time, spill_.front().time);
        return true;
    }
}

inline bool
EventQueue::nextBatch(SimTime horizon, Batch &out)
{
    SimTime t;
    if (!peekTime(t) || t > horizon) {
        if (now_ < horizon)
            now_ = horizon;
        out = Batch{};
        return false;
    }
    now_ = t;
    // peekTime() left the run's records at known positions, and no new
    // records can arrive while we drain (dispatch happens after this
    // returns), so the tail of the run is found with cheap time checks
    // per event instead of re-running the peek loop.
    if (!early_.empty()) {
        // Early-heap run: wheel times are >= windowStart_ > t, so every
        // same-time record lives in the early heap alone. Merged into
        // scratch (rare by construction).
        scratchBatch_.clear();
        do {
            --pending_;
            std::pop_heap(early_.begin(), early_.end(), Later{});
            scratchBatch_.push_back(early_.back());
            early_.pop_back();
        } while (!early_.empty() && early_.front().time == t);
        out = Batch{scratchBatch_.data(), scratchBatch_.size(), true};
        return true;
    }
    // Wheel run: time t maps to exactly one bucket, so every same-time
    // record is in the current (sorted) bucket or its spill heap.
    std::vector<EventRecord> &bucket = buckets_[cursor_];
    if (spill_.empty()) {
        // Common case: hand out the bucket's whole unconsumed suffix
        // up to the horizon, zero-copy — multiple timestamps in one
        // span. Posts during dispatch go to the spill heap (the bucket
        // is sorted), so the span survives until the next nextBatch()
        // call; drain()'s interleavePending() check decides when a
        // spilled event forces an early re-entry.
        std::size_t end = activeHead_ + 1;
        while (end < bucket.size() && bucket[end].time <= horizon)
            ++end;
        const std::size_t n = end - activeHead_;
        pending_ -= n;
        wheelCount_ -= n;
        out = Batch{bucket.data() + activeHead_, n, false};
        activeHead_ = end;
        return true;
    }
    // Spill records interleave with the sorted window: merge the run
    // into scratch. Equal-time ties drain the bucket first (spill seqs
    // are strictly higher).
    scratchBatch_.clear();
    for (;;) {
        --pending_;
        --wheelCount_;
        if (!spill_.empty() &&
            (activeHead_ == bucket.size() ||
             Later{}(bucket[activeHead_], spill_.front()))) {
            std::pop_heap(spill_.begin(), spill_.end(), Later{});
            scratchBatch_.push_back(spill_.back());
            spill_.pop_back();
        } else {
            scratchBatch_.push_back(bucket[activeHead_++]);
        }
        const bool more = (activeHead_ < bucket.size() &&
                           bucket[activeHead_].time == t) ||
                          (!spill_.empty() && spill_.front().time == t);
        if (!more)
            break;
    }
    out = Batch{scratchBatch_.data(), scratchBatch_.size(), true};
    return true;
}

inline void
EventQueue::returnTail(const Batch &batch, std::size_t consumed)
{
    const std::size_t rest = batch.count - consumed;
    pending_ += rest;
    if (!batch.merged) {
        // The records still sit in the sorted bucket: rewinding the
        // head re-serves them in place.
        activeHead_ -= rest;
        wheelCount_ += rest;
        return;
    }
    // A merged batch was popped into scratch from the early heap, or
    // from the spill heap and the bucket head. Push each record into
    // the heap its time belongs to; both order by (time, seq), and the
    // seq is unchanged, so the next batch serves them in the same order
    // (bucket-born records in the spill heap still merge correctly
    // against the bucket by full comparison).
    for (std::size_t i = consumed; i < batch.count; ++i) {
        const EventRecord &rec = batch.data[i];
        if (rec.time < windowStart_) {
            early_.push_back(rec);
            std::push_heap(early_.begin(), early_.end(), Later{});
        } else {
            spill_.push_back(rec);
            std::push_heap(spill_.begin(), spill_.end(), Later{});
            ++wheelCount_;
        }
    }
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
    Batch batch;
    while (nextBatch(horizon, batch)) {
        std::size_t consumed = 0;
        while (consumed < batch.count) {
            const EventRecord &event = batch.data[consumed];
            now_ = event.time;
            dispatch(event);
            ++consumed;
            if (stop) {
                returnTail(batch, consumed);
                return dispatched + consumed;
            }
            if (consumed < batch.count &&
                interleavePending(batch.data[consumed])) {
                returnTail(batch, consumed);
                break;
            }
        }
        dispatched += consumed;
    }
    return dispatched;
}

} // namespace erms

#endif // ERMS_SIM_EVENT_QUEUE_HPP
