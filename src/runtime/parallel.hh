/**
 * @file
 * Deterministic chunked-range parallelism.
 *
 * parallel_for / parallel_reduce split the index range [0, n) into
 * chunks whose *identity* — the boundaries — is a pure function of
 * (n, grain) and NEVER of the thread count, and reductions combine
 * partial results in ascending chunk order. Any stochastic workload
 * that derives its randomness from the chunk index (via
 * runtime::SeedSequence) therefore produces bit-identical results
 * whether it runs on 1 thread or N. Threads only decide who executes
 * a chunk, not what the chunk computes.
 *
 * Grain modes:
 *   grain > 0  — fixed: chunk c covers [c*grain, min((c+1)*grain, n)).
 *                Use when per-index cost is uniform, when chunk
 *                bodies are sized around the grain (e.g. the yield
 *                Monte Carlo's SoA lane blocks), and ALWAYS when the
 *                chunk index seeds an RNG stream: guided chunking
 *                changes chunk identity, so it would change the
 *                draws.
 *   grain == 0 — guided: the scheduler picks a decreasing chunk-size
 *                sequence (ceil(remaining/8) per step: large blocks
 *                first, single indices at the tail), a pure function
 *                of n alone. Use for skewed per-index costs — e.g.
 *                data points under adaptive yield escalation, where
 *                one index can be ~100x dearer than its neighbour —
 *                so stragglers end in fine-grained chunks that
 *                spread across workers instead of pinning one.
 *
 * Scheduling (see runtime/region.hh): every runner claims the next
 * chunk index from one shared counter, in ascending order, so a
 * runner that finishes early simply claims more while another is
 * busy with an expensive chunk. The caller always runs the claim
 * loop itself, helpers are borrowed from ThreadPool::global()
 * through its one queue of region offers, and the caller's
 * completion wait is a condition-variable handshake — no
 * sleep-polling anywhere. Nested parallel regions cannot deadlock: a
 * region's completion never depends on a helper starting, because
 * the caller can claim every chunk itself; a saturated pool degrades
 * toward sequential execution, never toward a cycle of blocked
 * workers.
 *
 * Scheduler statistics go to the metrics registry only: every region
 * counts into runtime.regions (parallel) or runtime.seq_regions
 * (sequential), plus runtime.chunks and the runtime.region_seconds /
 * runtime.region_idle_seconds timers (the latter is the caller's
 * wait for chunks still running on helpers).
 */

#ifndef QPAD_RUNTIME_PARALLEL_HH
#define QPAD_RUNTIME_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "exec/cancel.hh"
#include "obs/metrics.hh"
#include "runtime/region.hh"
#include "runtime/thread_pool.hh"

namespace qpad::runtime
{

/**
 * Ceiling on Options::num_threads: anything larger is a corrupted
 * or misparsed configuration, not a plausible machine. The bench
 * drivers' QPAD_THREADS validation (bench_common.hh) rejects
 * against this same constant, so an env value that passes there can
 * never panic here.
 */
constexpr std::size_t kMaxThreads = 4096;

/** Execution configuration carried by subsystem option structs. */
struct Options
{
    /**
     * Worker threads for parallel regions: 0 = one per hardware
     * thread, 1 = legacy sequential execution (no pool involved),
     * N = at most N concurrent chunk runners (N > hardware is
     * honoured up to one runner per pool worker plus the caller).
     * Values above kMaxThreads are rejected.
     */
    std::size_t num_threads = 0;
};

/** Resolve Options::num_threads (0 -> hardware concurrency);
 * rejects counts above kMaxThreads. */
std::size_t resolveThreads(const Options &options);

namespace detail
{

/** Runner count for a region: the resolved thread request, capped
 * at one runner per chunk and one per pool worker plus the caller.
 * Touches the global pool only when actually going parallel. */
inline std::size_t
clampRunners(std::size_t threads, std::size_t chunks)
{
    threads = std::min(threads, chunks);
    if (threads <= 1)
        return 1;
    return std::min(threads, ThreadPool::global().size() + 1);
}

/** Fold a sequentially-executed region into the process metrics
 * (parallel regions publish their series from runRegion). */
inline void
publishSequential(std::size_t chunks)
{
    static obs::Counter &regions = obs::counter("runtime.seq_regions");
    static obs::Counter &chunk_count = obs::counter("runtime.chunks");
    regions.add();
    chunk_count.add(chunks);
}

} // namespace detail

/**
 * Apply `body(begin, end, chunk_index)` to every chunk of [0, n).
 * Chunk boundaries depend only on (n, grain) — grain = 0 selects
 * guided sizing; see the file comment for the determinism contract
 * and for when each grain mode is appropriate.
 *
 * `deadline` is polled at every chunk claim. Once it has passed, the
 * unclaimed chunks are skipped and the call raises
 * exec::CancelledError; a chunk that started always finishes, so a
 * region that completes is bit-identical to one without a deadline.
 */
template <typename Body>
void
parallel_for(const Options &options, std::size_t n, std::size_t grain,
             Body &&body, exec::TimePoint deadline = exec::kNoDeadline)
{
    if (n == 0) {
        detail::publishSequential(0);
        return;
    }
    const detail::ChunkPlan plan(n, grain);
    const std::size_t chunks = plan.chunks();
    const std::size_t threads =
        detail::clampRunners(resolveThreads(options), chunks);
    if (threads <= 1) {
        // Counted before the loop so a region with a throwing chunk
        // is still counted in full, mirroring the parallel path
        // (which publishes before rethrowing and counts failure-
        // skipped chunks — the chunk count is the full region
        // either way).
        detail::publishSequential(chunks);
        for (std::size_t c = 0; c < chunks; ++c) {
            exec::throwIfPassed(deadline);
            const auto [begin, end] = plan.bounds(c);
            body(begin, end, c);
        }
        return;
    }
    detail::runRegion(chunks, threads,
                      [&plan, &body](std::size_t c) {
                          const auto [begin, end] = plan.bounds(c);
                          body(begin, end, c);
                      },
                      deadline);
}

/**
 * Map-reduce over [0, n): `map(begin, end, chunk_index)` produces one
 * partial result per chunk, folded left-to-right in chunk order with
 * `combine(accumulator, partial)`. The fold order is fixed, so the
 * result is independent of the thread count — and of which runner
 * claimed which chunk — even for non-commutative or floating-point
 * combines. `deadline` is polled as in parallel_for.
 */
template <typename T, typename Map, typename Combine>
T
parallel_reduce(const Options &options, std::size_t n, std::size_t grain,
                T identity, Map &&map, Combine &&combine,
                exec::TimePoint deadline = exec::kNoDeadline)
{
    if (n == 0) {
        detail::publishSequential(0);
        return identity;
    }
    const detail::ChunkPlan plan(n, grain);
    const std::size_t chunks = plan.chunks();
    std::vector<T> partials(chunks, identity);
    const std::size_t threads =
        detail::clampRunners(resolveThreads(options), chunks);
    if (threads <= 1) {
        detail::publishSequential(chunks);
        for (std::size_t c = 0; c < chunks; ++c) {
            exec::throwIfPassed(deadline);
            const auto [begin, end] = plan.bounds(c);
            partials[c] = map(begin, end, c);
        }
    } else {
        detail::runRegion(chunks, threads,
                          [&plan, &map, &partials](std::size_t c) {
                              const auto [begin, end] = plan.bounds(c);
                              partials[c] = map(begin, end, c);
                          },
                          deadline);
    }
    T result = std::move(identity);
    for (std::size_t c = 0; c < chunks; ++c)
        result = combine(std::move(result), partials[c]);
    return result;
}

} // namespace qpad::runtime

#endif // QPAD_RUNTIME_PARALLEL_HH
