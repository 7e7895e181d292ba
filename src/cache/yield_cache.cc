#include "cache/yield_cache.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/logging.hh"

namespace qpad::cache
{

namespace
{

std::mutex g_store_mutex;
// Leaked, like the obs registry and Context::none(): the at-exit
// metrics dump must still see its entries in the cache gauges,
// whatever order the static destructors run in.
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
                    const exec::Context &ctx,
                    const yield::YieldResult &prior)
{
    if (options.trials == 0)
        return yield::estimateYield(arch, options, ctx, prior);
    return memoized<yield::YieldResult>(
        yieldKey(arch, options), ctx, [&] {
            return yield::estimateYield(arch, options, ctx, prior);
        });
}

design::FreqAllocResult
cachedAllocateFrequencies(const arch::Architecture &arch,
                          const design::FreqAllocOptions &options,
                          const exec::Context &ctx)
{
    return memoized<design::FreqAllocResult>(
        freqAllocKey(arch, options), ctx, [&] {
            return design::allocateFrequencies(arch, options, ctx);
        });
}

} // namespace qpad::cache
