#include "cache/yield_cache.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace qpad::cache
{

namespace
{

std::mutex g_store_mutex;
std::unique_ptr<Store> g_store;

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

std::vector<uint8_t>
encodeYieldResult(const yield::YieldResult &result)
{
    Encoder enc;
    enc.u64(result.successes);
    enc.u64(result.trials);
    for (std::size_t c : result.condition_trials)
        enc.u64(c);
    return enc.bytes();
}

bool
decodeYieldResult(const std::vector<uint8_t> &blob,
                  const yield::YieldOptions &options,
                  yield::YieldResult &result)
{
    Decoder in(blob);
    uint64_t successes, trials;
    if (!in.u64(successes) || !in.u64(trials))
        return false;
    for (std::size_t &c : result.condition_trials) {
        uint64_t v;
        if (!in.u64(v))
            return false;
        c = std::size_t(v);
    }
    // The trials field doubles as an integrity check against the
    // requested key (a mismatch means corruption or a 128-bit
    // collision; recompute rather than serve it).
    if (!in.atEnd() || trials != options.trials || successes > trials)
        return false;
    result.successes = std::size_t(successes);
    result.trials = std::size_t(trials);
    result.yield = double(successes) / double(trials);
    return true;
}

std::vector<uint8_t>
encodeFreqAllocResult(const design::FreqAllocResult &result)
{
    Encoder enc;
    enc.u64(result.freqs.size());
    for (double f : result.freqs)
        enc.f64(f);
    enc.u64(result.order.size());
    for (arch::PhysQubit q : result.order)
        enc.u32(q);
    enc.u64(result.local_scores.size());
    for (double s : result.local_scores)
        enc.f64(s);
    return enc.bytes();
}

bool
decodeFreqAllocResult(const std::vector<uint8_t> &blob,
                      std::size_t num_qubits,
                      design::FreqAllocResult &result)
{
    Decoder in(blob);
    uint64_t n;
    if (!in.u64(n) || n != num_qubits)
        return false;
    result.freqs.resize(n);
    for (double &f : result.freqs)
        if (!in.f64(f))
            return false;
    uint64_t m;
    if (!in.u64(m) || m > num_qubits)
        return false;
    result.order.resize(m);
    for (arch::PhysQubit &q : result.order) {
        uint32_t v;
        if (!in.u32(v) || v >= num_qubits)
            return false;
        q = v;
    }
    uint64_t k;
    if (!in.u64(k) || k != m)
        return false;
    result.local_scores.resize(k);
    for (double &s : result.local_scores)
        if (!in.f64(s))
            return false;
    return in.atEnd();
}

} // namespace

Store &
globalStore()
{
    std::lock_guard<std::mutex> lock(g_store_mutex);
    if (!g_store)
        g_store = std::make_unique<Store>(optionsFromEnv());
    return *g_store;
}

void
configureGlobalCache(const CacheOptions &options)
{
    std::lock_guard<std::mutex> lock(g_store_mutex);
    g_store = std::make_unique<Store>(options);
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
                    const exec::Context &ctx)
{
    if (options.trials == 0)
        return yield::estimateYield(arch, options, ctx);
    // The encode/decode round trip is lossless (exact integers; the
    // yield ratio is recomputed from them), so the returned result
    // is bit-identical to the uncached call.
    return memoized<yield::YieldResult>(
        yieldKey(arch, options), "yield", ctx,
        [&] { return yield::estimateYield(arch, options, ctx); },
        encodeYieldResult,
        [&](const std::vector<uint8_t> &blob, yield::YieldResult &r) {
            return decodeYieldResult(blob, options, r);
        });
}

design::FreqAllocResult
cachedAllocateFrequencies(const arch::Architecture &arch,
                          const design::FreqAllocOptions &options,
                          const exec::Context &ctx)
{
    return memoized<design::FreqAllocResult>(
        freqAllocKey(arch, options), "freq-alloc", ctx,
        [&] { return design::allocateFrequencies(arch, options, ctx); },
        encodeFreqAllocResult,
        [&](const std::vector<uint8_t> &blob,
            design::FreqAllocResult &r) {
            return decodeFreqAllocResult(blob, arch.numQubits(), r);
        });
}

} // namespace qpad::cache
