#include "runtime/region.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/thread_pool.hh"

namespace qpad::runtime::detail
{

namespace
{

/** Idle and duration accounting; feeds metrics only. */
double
secondsSince(exec::TimePoint t0)
{
    return std::chrono::duration<double>(exec::now() - t0).count();
}

/** Fold one completed region into the process metrics registry. */
void
publishRegion(std::size_t chunk_count, const RegionState &region,
              double seconds)
{
    static obs::Counter &regions = obs::counter("runtime.regions");
    static obs::Counter &chunks = obs::counter("runtime.chunks");
    static obs::Counter &steals = obs::counter("runtime.steals");
    static obs::Histogram &duration =
        obs::histogram("runtime.region_seconds");
    static obs::Histogram &idle =
        obs::histogram("runtime.region_idle_seconds");
    regions.add();
    chunks.add(chunk_count);
    steals.add(region.steals());
    duration.observe(seconds);
    idle.observe(region.maxIdleSeconds());
}

} // namespace

RegionState::RegionState(std::size_t runners, std::size_t chunks,
                         std::function<void(std::size_t)> run_chunk,
                         const exec::CancelToken *cancel,
                         uint64_t request_id)
    : run_chunk_(std::move(run_chunk)), runners_(runners),
      cancel_(cancel), request_id_(request_id), pending_(chunks)
{
    qpad_assert(runners >= 1, "region needs at least one runner");
    deques_.reserve(runners);
    for (std::size_t i = 0; i < runners; ++i)
        deques_.push_back(std::make_unique<ChunkDeque>());
}

void
RegionState::loadDeque(std::size_t id, std::vector<std::size_t> items)
{
    deques_[id]->reset(std::move(items));
}

void
RegionState::helperEntry()
{
    // qpad-lint: allow(atomic-relaxed) "slot ticket only; the deque
    // contents were published before dispatch via the pool's offer
    // mutex"
    const std::size_t id =
        next_runner_.fetch_add(1, std::memory_order_relaxed);
    if (id >= runners_)
        return; // every runner slot already claimed
    runAs(id);
}

void
RegionState::runAs(std::size_t id)
{
    // Tag this runner with the owning request for the duration of
    // the region, so spans and log/flight events recorded inside
    // (possibly stolen) chunks carry the request id — on helpers as
    // well as on the caller.
    obs::ScopedRequestId rid_scope(request_id_);
    uint64_t rng_state = 0x2545f4914f6cdd1dull * (id + 1);
    uint64_t idle_ns = 0;
    for (;;) {
        std::size_t c = deques_[id]->take();
        if (c == ChunkDeque::kEmpty) {
            const exec::TimePoint idle_begin = exec::now();
            c = stealLoop(id, rng_state);
            idle_ns += uint64_t(secondsSince(idle_begin) * 1e9);
            if (c == ChunkDeque::kEmpty)
                break; // no unclaimed chunk anywhere
            // qpad-lint: allow(atomic-relaxed) "monotonic stat
            // counter; never synchronizes data"
            steals_.fetch_add(1, std::memory_order_relaxed);
        }
        // Cancellation poll at the chunk-claim boundary — strictly
        // AFTER the claim: the claimed chunk keeps pending_ > 0,
        // which pins the region's caller in waitDone and thereby
        // keeps the (caller-owned, often stack-resident) token
        // alive. A late helper that finds the deques drained breaks
        // out above without ever touching cancel_. A stop is
        // recorded through the first-error-wins path, so from here
        // on the remaining chunks are claimed-but-skipped: the
        // deques drain, pending_ reaches zero, and the caller wakes
        // holding a CancelledError. Never mid-chunk — a chunk that
        // started always finishes, which is what keeps completed
        // results bit-identical to uncancelled runs.
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
    if (idle_ns > 0)
        recordIdle(double(idle_ns) * 1e-9);
}

std::size_t
RegionState::stealLoop(std::size_t self, uint64_t &rng_state)
{
    for (;;) {
        bool contended = false;
        // Victim-order randomization only; which runner steals which
        // chunk never affects results.
        const std::size_t offset =
            Rng::splitMix64(rng_state) % runners_;
        for (std::size_t k = 0; k < runners_; ++k) {
            const std::size_t victim = (offset + k) % runners_;
            if (victim == self)
                continue;
            const std::size_t c = deques_[victim]->steal();
            if (c == ChunkDeque::kAbort) {
                contended = true; // another thief won; re-sweep
                continue;
            }
            if (c != ChunkDeque::kEmpty)
                return c;
        }
        if (!contended)
            return ChunkDeque::kEmpty;
        // Every abort means some other runner claimed a chunk, so
        // re-sweeping makes global progress and terminates.
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
RegionState::recordIdle(double seconds)
{
    const uint64_t ns = uint64_t(seconds * 1e9);
    // qpad-lint: allow(atomic-relaxed) "stat max; value is only a
    // metric and carries no payload"
    uint64_t seen = max_idle_ns_.load(std::memory_order_relaxed);
    // qpad-lint: allow(atomic-relaxed) "stat max CAS; same contract
    // as the load above"
    while (seen < ns &&
           !max_idle_ns_.compare_exchange_weak(
               seen, ns, std::memory_order_relaxed))
        ;
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

std::size_t
RegionState::steals() const
{
    // qpad-lint: allow(atomic-relaxed) "stat read; waitDone's
    // acquire on pending_ already ordered all runner writes"
    return steals_.load(std::memory_order_relaxed);
}

double
RegionState::maxIdleSeconds() const
{
    // qpad-lint: allow(atomic-relaxed) "stat read; same ordering
    // argument as steals_ above"
    return double(max_idle_ns_.load(std::memory_order_relaxed)) * 1e-9;
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
runRegion(std::size_t chunks, std::size_t threads, bool guided,
          std::function<void(std::size_t)> run_chunk,
          const exec::CancelToken *cancel, uint64_t request_id)
{
    qpad_assert(threads >= 2 && threads <= chunks,
                "runRegion caller must pre-clamp the runner count");
    obs::ScopedRequestId rid_scope(request_id);
    QPAD_SPAN("runtime.region");
    const exec::TimePoint region_begin = exec::now();
    auto region = std::make_shared<RegionState>(
        threads, chunks, std::move(run_chunk), cancel, request_id);

    // Initial deal. Guided: strided, so every runner starts with a
    // mix of large (early) and small (late) chunks and the expensive
    // head blocks begin on distinct runners immediately. Fixed:
    // contiguous ranges, so a runner walks adjacent chunks (cache-
    // and prefetch-friendly for block-sized Monte Carlo bodies).
    // Each list is stored reversed: ChunkDeque owners pop from the
    // back, and the owner should run its chunks in ascending order.
    std::vector<std::vector<std::size_t>> lists(threads);
    if (guided) {
        for (std::size_t c = 0; c < chunks; ++c)
            lists[c % threads].push_back(c);
    } else {
        const std::size_t base = chunks / threads;
        const std::size_t extra = chunks % threads;
        std::size_t next = 0;
        for (std::size_t r = 0; r < threads; ++r) {
            const std::size_t count = base + (r < extra ? 1 : 0);
            for (std::size_t k = 0; k < count; ++k)
                lists[r].push_back(next++);
        }
    }
    for (std::size_t r = 0; r < threads; ++r) {
        std::vector<std::size_t> &list = lists[r];
        std::reverse(list.begin(), list.end());
        region->loadDeque(r, std::move(list));
    }

    // Offer helper slots to the pool and work the region as runner
    // 0. If the pool is saturated — e.g. a nested region on a busy
    // machine — the helpers simply start late or never, and the
    // caller steals the whole range itself: graceful degradation to
    // sequential execution instead of a blocked cycle. A calling
    // pool worker cannot pop its own offer early: it stays in
    // runAs/waitDone until the region completes.
    ThreadPool::global().dispatchRegion(region, threads - 1);
    region->runAs(0);
    const exec::TimePoint wait_begin = exec::now();
    region->waitDone();
    region->recordIdle(secondsSince(wait_begin));

    // Published before the rethrow so failed regions are counted
    // too. Every chunk is claimed exactly once (failure-skipped ones
    // included), so the region's chunk count is exact.
    publishRegion(chunks, *region, secondsSince(region_begin));
    region->rethrowIfFailed();
}

} // namespace qpad::runtime::detail
