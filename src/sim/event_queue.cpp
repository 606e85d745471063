#include "event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace erms {

namespace {

constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

EventQueue::EventQueue(std::size_t bucket_count, SimTime bucket_width)
    : bucketCount_(bucket_count), bucketWidth_(bucket_width),
      span_(static_cast<SimTime>(bucket_count) * bucket_width)
{
    ERMS_ASSERT_MSG(isPowerOfTwo(bucket_count),
                    "bucket count must be a power of two");
    ERMS_ASSERT_MSG(isPowerOfTwo(bucket_width),
                    "bucket width must be a power of two");
    buckets_.resize(bucketCount_);
    occupied_.assign(std::max<std::size_t>(1, bucketCount_ / 64), 0);
}

EventQueue::Lane
EventQueue::addLane(SimTime delay)
{
    lanes_.emplace_back().delay = delay;
    return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

void
EventQueue::pourFar()
{
    // windowStart_ never overtakes a far or lane record, so the
    // subtractions below cannot underflow.
    farScanned_ += far_.size();
    std::size_t keep = 0;
    SimTime keep_min = kNoFar;
    for (std::size_t i = 0; i < far_.size(); ++i) {
        const EventRecord &rec = far_[i];
        if (rec.time - windowStart_ < span_) {
            pushBucket(bucketOf(rec.time), rec);
            continue;
        }
        keep_min = std::min(keep_min, rec.time);
        far_[keep++] = rec;
    }
    far_.resize(keep);

    for (TimerLane &lane : lanes_) {
        std::vector<EventRecord> &records = lane.records;
        while (lane.head < records.size() &&
               records[lane.head].time - windowStart_ < span_) {
            const EventRecord &rec = records[lane.head++];
            pushBucket(bucketOf(rec.time), rec);
        }
        if (lane.head == records.size()) {
            records.clear();
            lane.head = 0;
            continue;
        }
        keep_min = std::min(keep_min, records[lane.head].time);
        // Drop the poured prefix once it is half the lane: a compaction
        // moves no more records than were popped since the last one,
        // and the lane holds at most about twice the timers in flight.
        if (2 * lane.head >= records.size()) {
            records.erase(records.begin(),
                          records.begin() +
                              static_cast<std::ptrdiff_t>(lane.head));
            lane.head = 0;
        }
    }
    farMin_ = keep_min;
}

} // namespace erms
