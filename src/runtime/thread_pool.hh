/**
 * @file
 * Worker pool behind qpad's parallel primitives: one FIFO queue of
 * parallel-region helper offers under one mutex and one condition
 * variable.
 *
 * The pool's only job is "wake k helpers for this region":
 * dispatchRegion (see runtime/region.hh) pushes one offer per helper
 * and wakes one sleeping worker per offer; a worker pops the oldest
 * offer and runs that region's claim loop until every chunk is
 * claimed. Load balancing happens one level down, at chunk
 * granularity, through the region's one claim counter: whichever
 * runner is free takes the next chunk. Determinism is NOT the pool's
 * job either — offers run in any order on any worker — it is
 * provided by parallel_for / parallel_reduce, which fix chunk
 * identity and merge order (see runtime/parallel.hh).
 */

#ifndef QPAD_RUNTIME_THREAD_POOL_HH
#define QPAD_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qpad::runtime
{

namespace detail
{
class RegionState;
}

/** Fixed-size thread pool serving one queue of region offers. */
class ThreadPool
{
  public:
    /** Spawn `num_threads` workers (>= 1). */
    explicit ThreadPool(std::size_t num_threads);

    /**
     * Offers whose region already finished retire during the join —
     * a region counts as active from dispatchRegion until its
     * caller's waitDone returns, not until the last offer retires.
     *
     * Destroying a pool while a region is still active (dispatched,
     * completion not yet observed) is a documented loud failure
     * (stderr message + std::abort), never a hang: the region's
     * caller is blocked in waitDone() fed by the helpers we would
     * stop, so joining the workers could deadlock against it, and
     * throwing from a destructor would terminate with no message.
     * Hitting this means a pool was torn down mid-region.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return threads_.size(); }

    /**
     * Queue min(helpers, size()) offers of a parallel region and
     * wake one sleeping worker per offer. Returns immediately. A
     * worker that picks an offer up late — after every chunk of the
     * region is claimed — retires harmlessly (see runtime/region.hh
     * lifetime notes). A worker that opens a region stays inside it
     * until the region completes, so it never pops its own offer
     * early; such an offer retires the same way.
     */
    void dispatchRegion(std::shared_ptr<detail::RegionState> region,
                        std::size_t helpers);

    /**
     * Process-wide shared pool, lazily created with
     * hardware_concurrency() - 1 workers (the thread that calls a
     * parallel primitive participates in the work itself, so pool
     * workers plus caller saturate the machine). Never destroyed
     * before program exit.
     */
    static ThreadPool &global();

    /** Regions dispatched whose caller has not yet observed
     * completion through waitDone; nonzero at destruction is the
     * documented abort (see ~ThreadPool). */
    std::size_t activeRegions() const
    {
        return active_regions_.load(std::memory_order_seq_cst);
    }

  private:
    void workerLoop();

    /** Guards offers_ and stopping_; a region's constructed state
     * is published to its helpers through this mutex. */
    std::mutex mutex_;
    std::condition_variable cv_;
    /** Region offers, oldest first. */
    std::deque<std::shared_ptr<detail::RegionState>> offers_;
    bool stopping_ = false;
    /** Regions dispatched whose caller has not yet returned from
     * waitDone (dispatchRegion increments and arms the region's
     * finished signal; RegionState::waitDone decrements); the
     * destructor's active-region tripwire. */
    std::atomic<std::size_t> active_regions_{0};
    std::vector<std::thread> threads_;
};

} // namespace qpad::runtime

#endif // QPAD_RUNTIME_THREAD_POOL_HH
