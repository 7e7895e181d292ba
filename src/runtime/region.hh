/**
 * @file
 * Parallel-region execution state.
 *
 * One RegionState is the shared heart of one parallel_for /
 * parallel_reduce call: the type-erased chunk body, one claim
 * counter that hands out chunk indices in ascending order, the
 * outstanding-chunk counter the caller's completion wait hangs off,
 * and first-error-wins exception capture. The caller and every pool
 * helper run the same claim loop (runAs), so whoever is free takes
 * the next chunk; runners share no other work queue.
 *
 * Lifetime: regions are heap-allocated and shared_ptr-owned by the
 * caller *and* by every helper offer queued on the ThreadPool. The
 * caller returns as soon as every chunk has finished executing
 * (pending == 0) — helpers that the pool only gets around to
 * starting later find the counter exhausted, touch nothing but the
 * region's own atomics, and retire. That is what makes the engine
 * deadlock-free without a sleep-polling "helping wait": the caller
 * always runs the claim loop itself and can claim every chunk, so
 * completion never depends on a helper actually starting.
 */

#ifndef QPAD_RUNTIME_REGION_HH
#define QPAD_RUNTIME_REGION_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/cancel.hh"

namespace qpad::runtime
{

namespace detail
{

/**
 * Guided chunk-size divisor: guided chunk c covers
 * ceil(remaining / kGuidedDivisor) indices of what is left, so sizes
 * decay geometrically from n/8 toward single indices at the tail.
 * Fixed (never derived from the thread count) so guided boundaries
 * stay a pure function of n alone.
 */
constexpr std::size_t kGuidedDivisor = 8;

/**
 * Chunk identity for one region: boundaries as a pure function of
 * (n, grain). grain > 0 produces fixed grain-sized chunks; grain = 0
 * produces the guided decreasing-size sequence (large blocks first,
 * shrinking toward the tail) for skewed per-index costs. Chunks are
 * claimed in ascending index order, so the largest guided chunks
 * start first.
 */
class ChunkPlan
{
  public:
    ChunkPlan(std::size_t n, std::size_t grain) : n_(n), grain_(grain)
    {
        if (grain_ != 0)
            return;
        offsets_.push_back(0);
        std::size_t remaining = n_;
        while (remaining > 0) {
            const std::size_t step =
                (remaining + kGuidedDivisor - 1) / kGuidedDivisor;
            offsets_.push_back(offsets_.back() + step);
            remaining -= step;
        }
    }

    bool guided() const { return grain_ == 0; }

    std::size_t chunks() const
    {
        return guided() ? offsets_.size() - 1
                        : (n_ + grain_ - 1) / grain_;
    }

    /** [begin, end) of chunk c. */
    std::pair<std::size_t, std::size_t> bounds(std::size_t c) const
    {
        if (guided())
            return {offsets_[c], offsets_[c + 1]};
        const std::size_t begin = c * grain_;
        return {begin, std::min(begin + grain_, n_)};
    }

  private:
    std::size_t n_;
    std::size_t grain_;
    std::vector<std::size_t> offsets_; // guided boundaries, chunks+1
};

/** Shared state of one in-flight parallel region. */
class RegionState
{
  public:
    /**
     * `deadline` (kNoDeadline = none) is polled at every chunk-claim
     * boundary: once it has passed, the remaining chunks are
     * claimed-but-skipped — the counter still runs out and pending_
     * still reaches zero — and a CancelledError is captured through
     * the same first-error-wins path a throwing chunk uses.
     */
    RegionState(std::size_t chunks,
                std::function<void(std::size_t)> run_chunk,
                exec::TimePoint deadline);

    /**
     * The claim loop, run by the caller and by every pool helper:
     * claim the next chunk index from the shared counter and run it,
     * until the counter passes the last chunk. A helper that arrives
     * after that retires at once.
     */
    void runAs();

    /** Block (condition variable, no polling) until every chunk has
     * finished executing. Also disarms the finished signal: by the
     * time this returns, the pool no longer counts the region as
     * active, so the caller may tear the pool down immediately. */
    void waitDone();

    /**
     * Arm a one-shot countdown that waitDone() decrements once every
     * chunk has finished. dispatchRegion points this at the pool's
     * active-region counter, so a region is "active" from dispatch
     * until its caller has observed completion — helper offers that
     * outlive a finished region (by design; see the lifetime notes
     * above) keep the count at zero. Call before dispatch only.
     */
    void armFinishedSignal(std::atomic<std::size_t> &counter);

    /** Rethrow the first captured chunk exception, if any. */
    void rethrowIfFailed();

  private:
    /** Chunk done (or skipped after a failure): decrement pending
     * and wake the caller on the last one. */
    void finishChunk();

    void recordError();

    /** Capture a CancelledError as the region's first error (no-op
     * if a chunk already failed) and set the skip flag. */
    void recordStop();

    std::function<void(std::size_t)> run_chunk_;
    std::size_t chunks_;
    exec::TimePoint deadline_;

    /** Next unclaimed chunk index; >= chunks_ once all are claimed. */
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> pending_;
    std::atomic<bool> failed_{false};

    std::mutex error_mutex_;
    std::exception_ptr error_;

    std::mutex done_mutex_;
    std::condition_variable done_cv_;
    /** Armed before dispatch, read/cleared under done_mutex_ in
     * waitDone (null = never dispatched or already disarmed). */
    std::atomic<std::size_t> *finished_signal_ = nullptr;
};

/**
 * Execute `run_chunk(c)` for every c in [0, chunks) on `threads`
 * runners (calling thread included) that claim chunks from one
 * counter. The first exception thrown by any chunk is rethrown in
 * the caller after every chunk has finished or been skipped; a
 * passed `deadline` surfaces the same way, as a CancelledError.
 * Every region, failed ones included, is
 * counted in the runtime.regions / .chunks series and the
 * runtime.region_seconds / .region_idle_seconds timers (the
 * latter is the caller's wait for chunks still running on helpers).
 */
void runRegion(std::size_t chunks, std::size_t threads,
               std::function<void(std::size_t)> run_chunk,
               exec::TimePoint deadline);

} // namespace detail

} // namespace qpad::runtime

#endif // QPAD_RUNTIME_REGION_HH
