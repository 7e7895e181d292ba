#include "runtime/thread_pool.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "runtime/region.hh"

namespace qpad::runtime
{

ThreadPool::ThreadPool(std::size_t num_threads)
{
    qpad_assert(num_threads >= 1, "ThreadPool needs at least 1 worker");
    threads_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    // Tearing the pool down mid-region can deadlock the join below
    // against the region's caller (blocked in waitDone, fed by the
    // helpers we are about to stop), and qpad_panic throws — which a
    // noexcept destructor turns into a bare std::terminate. Fail
    // loudly and unambiguously instead (see the ~ThreadPool doc).
    if (active_regions_.load(std::memory_order_seq_cst) != 0) {
        // Preserve the evidence before dying: write the open trace
        // session, balanced. The SIGABRT handler then finds it closed
        // and leaves the file alone.
        obs::stopTracing();
        // qpad-lint: allow(rawlog) "abort path: the structured
        // logger may allocate or lock during teardown; raw stderr is
        // the only safe reporter here"
        std::fprintf(stderr,
                     "qpad: fatal: ThreadPool destroyed while a "
                     "parallel region is still active (%zu "
                     "region(s) dispatched without an observed "
                     "completion); a pool must outlive every "
                     "region dispatched to it\n",
                     activeRegions());
        std::fflush(stderr);
        std::abort();
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
ThreadPool::dispatchRegion(std::shared_ptr<detail::RegionState> region,
                           std::size_t helpers)
{
    // Count the region as active until its caller observes
    // completion: waitDone decrements through the armed signal, so
    // the destructor tripwire covers dispatch → observed-complete,
    // not the (longer, harmless) lifetime of late offers.
    active_regions_.fetch_add(1, std::memory_order_seq_cst);
    region->armFinishedSignal(active_regions_);
    const std::size_t offers = std::min(helpers, size());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        qpad_assert(!stopping_, "dispatch on a stopping ThreadPool");
        for (std::size_t i = 0; i < offers; ++i)
            offers_.push_back(region);
    }
    // One wake per offer: a woken worker takes one offer, and a
    // worker that is already awake re-checks the queue before it
    // sleeps, so no offer strands while a worker idles.
    for (std::size_t i = 0; i < offers; ++i)
        cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<detail::RegionState> region;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !offers_.empty(); });
            if (offers_.empty())
                return; // stopping, and every stale offer retired
            region = std::move(offers_.front());
            offers_.pop_front();
        }
        region->runAs();
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(std::max<std::size_t>(
        1, std::thread::hardware_concurrency() == 0
               ? 1
               : std::thread::hardware_concurrency() - 1));
    return pool;
}

} // namespace qpad::runtime
