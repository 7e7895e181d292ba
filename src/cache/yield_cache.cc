#include "cache/yield_cache.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream> // std::cerr is built before g_env_checked may fail
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"

namespace qpad::cache
{

namespace
{

std::mutex g_store_mutex;
// Leaked, like the obs registry: the at-exit metrics dump must still
// see its entries in the cache gauges, whatever order the static
// destructors run in.
Store *g_store = nullptr;

/** Strict nonnegative-integer env parse (bench_common convention:
 * malformed values fail loudly instead of being coerced). */
uint64_t
parseEnvUint(const char *name, const char *value)
{
    for (const char *c = value; *c; ++c)
        if (!std::isdigit(static_cast<unsigned char>(*c)))
            qpad_fatal("invalid ", name, " value '", value,
                       "' (expected a nonnegative integer)");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (errno == ERANGE || *end != '\0')
        qpad_fatal("invalid ", name, " value '", value,
                   "' (out of range)");
    return v;
}

CacheOptions
optionsFromEnv()
{
    CacheOptions options;
    if (const char *flag = std::getenv("QPAD_CACHE");
        flag && *flag) {
        if (flag[0] == '0' && flag[1] == '\0')
            options.enabled = false;
        else if (!(flag[0] == '1' && flag[1] == '\0'))
            qpad_fatal("invalid QPAD_CACHE value '", flag,
                       "' (expected 0 or 1)");
    }
    if (const char *bytes = std::getenv("QPAD_CACHE_BYTES");
        bytes && *bytes)
        options.max_bytes =
            std::size_t(parseEnvUint("QPAD_CACHE_BYTES", bytes));
    return options;
}

/** QPAD_CACHE and QPAD_CACHE_BYTES, checked once at static init
 * (env is set before main): a malformed value prints its one
 * `log.fatal` line and exits 2, like the bench knobs, instead of
 * escaping the first cached call as an uncaught exception. */
[[maybe_unused]] const bool g_env_checked = [] {
    try {
        return optionsFromEnv().enabled;
    } catch (const std::runtime_error &) {
        std::exit(2);
    }
}();

} // namespace

Store &
globalStore()
{
    std::lock_guard<std::mutex> lock(g_store_mutex);
    if (!g_store)
        g_store = new Store(optionsFromEnv());
    return *g_store;
}

void
configureGlobalCache(const CacheOptions &options)
{
    std::lock_guard<std::mutex> lock(g_store_mutex);
    delete std::exchange(g_store, new Store(options));
}

Fingerprint
yieldKey(const arch::Architecture &arch,
         const yield::YieldOptions &options)
{
    Encoder enc;
    enc.str("qpad.yield/v1");
    encodeArchitecture(enc, arch);
    enc.u64(options.trials);
    enc.f64(options.sigma_ghz);
    enc.u64(options.seed);
    enc.u8(options.collect_condition_stats ? 1 : 0);
    encodeCollisionModel(enc, options.model);
    // options.exec never changes the result (the runtime contract)
    // and is excluded.
    enc.u8(kDrawOrderByte);
    return enc.digest();
}

Fingerprint
freqAllocKey(const arch::Architecture &arch,
             const design::FreqAllocOptions &options)
{
    Encoder enc;
    enc.str("qpad.freqalloc/v1");
    // The allocator reads the topology (coords + buses via the
    // coupling graph) and never the pre-existing frequencies.
    encodeTopology(enc, arch);
    enc.f64(options.grid_step_ghz);
    enc.u64(options.local_trials);
    enc.f64(options.sigma_ghz);
    encodeCollisionModel(enc, options.model);
    enc.u64(options.seed);
    enc.u32(options.refine_sweeps);
    enc.u8(kDrawOrderByte);
    return enc.digest();
}

yield::YieldResult
cachedEstimateYield(const arch::Architecture &arch,
                    const yield::YieldOptions &options,
                    exec::TimePoint deadline,
                    const yield::YieldResult &prior)
{
    if (options.trials == 0)
        return yield::estimateYield(arch, options, deadline, prior);
    return memoized<yield::YieldResult>(
        yieldKey(arch, options), deadline, [&] {
            return yield::estimateYield(arch, options, deadline, prior);
        });
}

design::FreqAllocResult
cachedAllocateFrequencies(const arch::Architecture &arch,
                          const design::FreqAllocOptions &options,
                          exec::TimePoint deadline)
{
    return memoized<design::FreqAllocResult>(
        freqAllocKey(arch, options), deadline, [&] {
            return design::allocateFrequencies(arch, options, deadline);
        });
}

} // namespace qpad::cache
