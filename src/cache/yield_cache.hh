/**
 * @file
 * Cached front ends for the expensive deterministic computations of
 * the design flow, backed by one process-wide content-addressed
 * Store.
 *
 * Every cached result is a pure function of the fingerprinted inputs
 * (see cache/fingerprint.hh): estimateYield and allocateFrequencies
 * are bit-identical across thread counts by the qpad::runtime
 * contract, so runtime::Options is deliberately *excluded* from the
 * keys. Cache-on is therefore bit-identical to cache-off by
 * construction — a hit returns the value a miss computed.
 *
 * The global store is configured from the environment on first use:
 *   QPAD_CACHE=0       disable memoization entirely
 *   QPAD_CACHE_BYTES   in-memory LRU budget (default 64 MiB)
 * configureGlobalCache() overrides this programmatically (tests,
 * benches). Reconfiguration is not thread-safe against concurrent
 * cached calls; do it before spawning parallel work.
 */

#ifndef QPAD_CACHE_YIELD_CACHE_HH
#define QPAD_CACHE_YIELD_CACHE_HH

#include "cache/store.hh"
#include "design/freq_alloc.hh"
#include "exec/context.hh"
#include "yield/yield_sim.hh"

namespace qpad::cache
{

/** Written by every yield and freq-alloc key where earlier builds
 * wrote their draw-order version (2 = the lane order), so their keys
 * stay the same. */
inline constexpr uint8_t kDrawOrderByte = 2;

/** The process-wide store (created from the environment on first
 * use; never null, and never destroyed, so the cache gauges still
 * hold its final residency when the metrics are dumped at exit). */
Store &globalStore();

/** Replace the global store (tests/benches), freeing the old one. */
void configureGlobalCache(const CacheOptions &options);

/**
 * `compute` through the global store under `key`: concurrent
 * identical requests compute once (Store::getOrCompute; `ctx` governs
 * only this caller's wait), and every caller gets a copy of the
 * stored value. A disabled cache falls straight through to
 * `compute`.
 */
template <class T, class Compute>
T
memoized(const Fingerprint &key, const exec::Context &ctx,
         const Compute &compute)
{
    Store &store = globalStore();
    if (!store.options().enabled)
        return compute();
    return *store.getOrCompute<T>(key, compute, ctx.token());
}

/** Cache key of one estimateYield invocation (tagged, versioned). */
Fingerprint yieldKey(const arch::Architecture &arch,
                     const yield::YieldOptions &options);

/** Cache key of one allocateFrequencies invocation. */
Fingerprint freqAllocKey(const arch::Architecture &arch,
                         const design::FreqAllocOptions &options);

/**
 * estimateYield through the global cache: exact-key memoization of
 * the deterministic result. Zero-trial calls and a disabled cache
 * pass straight through. Concurrent identical requests deduplicate
 * via Store::getOrCompute — exactly one computes, the rest wait
 * (each honouring its own `ctx`; a cancelled waiter never cancels
 * the computing owner). A miss resumes from `prior` (see
 * estimateYield), and the key stays (arch, options): a resumed
 * estimate is bit-identical to one computed in full.
 */
yield::YieldResult
cachedEstimateYield(const arch::Architecture &arch,
                    const yield::YieldOptions &options = {},
                    const exec::Context &ctx = exec::Context::none(),
                    const yield::YieldResult &prior = {});

/** allocateFrequencies through the global cache (same dedup and
 * cancellation semantics as cachedEstimateYield). */
design::FreqAllocResult
cachedAllocateFrequencies(
    const arch::Architecture &arch,
    const design::FreqAllocOptions &options = {},
    const exec::Context &ctx = exec::Context::none());

} // namespace qpad::cache

#endif // QPAD_CACHE_YIELD_CACHE_HH
