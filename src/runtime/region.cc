#include "runtime/region.hh"

#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/thread_pool.hh"

namespace qpad::runtime::detail
{

namespace
{

/** Duration accounting; feeds metrics only. */
double
secondsSince(exec::TimePoint t0)
{
    return std::chrono::duration<double>(exec::now() - t0).count();
}

/** Fold one completed region into the process metrics registry. */
void
publishRegion(std::size_t chunk_count, double seconds,
              double idle_seconds)
{
    static obs::Counter &regions = obs::counter("runtime.regions");
    static obs::Counter &chunks = obs::counter("runtime.chunks");
    static obs::Histogram &duration =
        obs::histogram("runtime.region_seconds");
    static obs::Histogram &idle =
        obs::histogram("runtime.region_idle_seconds");
    regions.add();
    chunks.add(chunk_count);
    duration.observe(seconds);
    idle.observe(idle_seconds);
}

} // namespace

RegionState::RegionState(std::size_t chunks,
                         std::function<void(std::size_t)> run_chunk,
                         const exec::CancelToken *cancel)
    : run_chunk_(std::move(run_chunk)), chunks_(chunks),
      cancel_(cancel), pending_(chunks)
{
}

void
RegionState::runAs()
{
    for (;;) {
        const std::size_t c =
            next_.fetch_add(1, std::memory_order_seq_cst);
        if (c >= chunks_)
            break; // every chunk is claimed
        // Cancellation poll at the chunk-claim boundary — strictly
        // AFTER the claim: the claimed chunk keeps pending_ > 0,
        // which pins the region's caller in waitDone and thereby
        // keeps the (caller-owned, often stack-resident) token
        // alive. A late helper that finds every chunk claimed breaks
        // out above without ever touching cancel_. A stop is
        // recorded through the first-error-wins path, so from here
        // on the remaining chunks are claimed-but-skipped: the
        // counter runs out, pending_ reaches zero, and the caller
        // wakes holding a CancelledError. Never mid-chunk — a chunk
        // that started always finishes, which is what keeps
        // completed results bit-identical to uncancelled runs.
        // qpad-lint: allow(atomic-relaxed) "best-effort skip flag;
        // the error itself is published under error_mutex_"
        if (cancel_ != nullptr &&
            !failed_.load(std::memory_order_relaxed)) {
            const exec::StopReason reason = cancel_->stopReason();
            if (reason != exec::StopReason::kNone)
                recordStop(reason);
        }
        // After a failure the remaining chunks are claimed but
        // skipped, so pending_ still drains and waiters wake.
        // qpad-lint: allow(atomic-relaxed) "best-effort skip flag;
        // the error itself is published under error_mutex_"
        if (!failed_.load(std::memory_order_relaxed)) {
            try {
                run_chunk_(c);
            } catch (...) {
                recordError();
            }
        }
        finishChunk();
    }
}

void
RegionState::finishChunk()
{
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
    }
}

void
RegionState::waitDone()
{
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) == 0;
    });
    // Disarm before returning, not in finishChunk: the caller may
    // destroy the pool the instant this returns, and the decrement
    // must be ordered before that (a finishing runner decrementing
    // after our wakeup would race the pool's destructor tripwire).
    if (finished_signal_ != nullptr) {
        finished_signal_->fetch_sub(1, std::memory_order_seq_cst);
        finished_signal_ = nullptr;
    }
}

void
RegionState::armFinishedSignal(std::atomic<std::size_t> &counter)
{
    // Pre-dispatch only (single-threaded); the pool's offer mutex
    // publishes the pointer to whichever thread later runs waitDone.
    finished_signal_ = &counter;
}

void
RegionState::recordError()
{
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_)
            error_ = std::current_exception();
    }
    // qpad-lint: allow(atomic-relaxed) "best-effort skip hint; the
    // exception is published under error_mutex_ above"
    failed_.store(true, std::memory_order_relaxed);
}

void
RegionState::recordStop(exec::StopReason reason)
{
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        // First error wins: a stop that loses to an earlier chunk
        // exception (or an earlier stop) bumps no counter, so
        // exec.cancelled counts stopped regions, not polls.
        if (!error_) {
            error_ = std::make_exception_ptr(
                exec::CancelledError(reason));
            exec::noteStopped(reason);
        }
    }
    // qpad-lint: allow(atomic-relaxed) "best-effort skip hint; the
    // exception is published under error_mutex_ above"
    failed_.store(true, std::memory_order_relaxed);
}

void
RegionState::rethrowIfFailed()
{
    // MOVE the exception out rather than copying it: the region can
    // outlive this call on a late-starting pool worker (shared_ptr
    // lifetime, see region.hh), and if the region still held a
    // reference, that worker would perform the final release of the
    // exception object the caller's catch block is reading.
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        std::swap(error, error_);
    }
    if (error)
        std::rethrow_exception(error);
}

void
runRegion(std::size_t chunks, std::size_t threads,
          std::function<void(std::size_t)> run_chunk,
          const exec::CancelToken *cancel)
{
    qpad_assert(threads >= 2 && threads <= chunks,
                "runRegion caller must pre-clamp the runner count");
    QPAD_SPAN("runtime.region");
    const exec::TimePoint region_begin = exec::now();
    auto region = std::make_shared<RegionState>(
        chunks, std::move(run_chunk), cancel);

    // Offer threads - 1 helpers to the pool (so at most `threads`
    // runners ever claim a chunk) and run the claim loop here too.
    // If the pool is saturated — e.g. a nested region on a busy
    // machine — the helpers simply start late or never, and the
    // caller claims the whole range itself: graceful degradation to
    // sequential execution instead of a blocked cycle. A calling
    // pool worker cannot pop its own offer early: it stays in
    // runAs/waitDone until the region completes.
    ThreadPool::global().dispatchRegion(region, threads - 1);
    region->runAs();
    const exec::TimePoint wait_begin = exec::now();
    region->waitDone();
    const double idle_seconds = secondsSince(wait_begin);

    // Published before the rethrow so failed regions are counted
    // too. Every chunk is claimed exactly once (failure-skipped ones
    // included), so the region's chunk count is exact.
    publishRegion(chunks, secondsSince(region_begin), idle_seconds);
    region->rethrowIfFailed();
}

} // namespace qpad::runtime::detail
