#include "cache/fingerprint.hh"

#include <bit>
#include <cstring>

namespace qpad::cache
{

namespace
{

inline uint64_t
rotl64(uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline uint64_t
fmix64(uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

/** Little-endian load of up to 8 tail bytes. */
inline uint64_t
loadTail(const uint8_t *p, std::size_t n)
{
    uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

} // namespace

std::string
Fingerprint::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
        const uint64_t word = i < 8 ? hi : lo;
        const int shift = 60 - 8 * (i % 8) - 0;
        out[2 * i] = digits[(word >> shift) & 0xf];
        out[2 * i + 1] = digits[(word >> (shift - 4)) & 0xf];
    }
    return out;
}

Fingerprint
hashBytes(const uint8_t *data, std::size_t len)
{
    // MurmurHash3 x64/128 (public domain reference algorithm),
    // seed 0, restated with explicit little-endian block loads so
    // the digest is identical on any host.
    constexpr uint64_t c1 = 0x87c37b91114253d5ull;
    constexpr uint64_t c2 = 0x4cf5ad432745937full;

    uint64_t h1 = 0, h2 = 0;
    const std::size_t nblocks = len / 16;

    for (std::size_t i = 0; i < nblocks; ++i) {
        uint64_t k1 = loadTail(data + 16 * i, 8);
        uint64_t k2 = loadTail(data + 16 * i + 8, 8);

        k1 *= c1;
        k1 = rotl64(k1, 31);
        k1 *= c2;
        h1 ^= k1;
        h1 = rotl64(h1, 27);
        h1 += h2;
        h1 = h1 * 5 + 0x52dce729;

        k2 *= c2;
        k2 = rotl64(k2, 33);
        k2 *= c1;
        h2 ^= k2;
        h2 = rotl64(h2, 31);
        h2 += h1;
        h2 = h2 * 5 + 0x38495ab5;
    }

    const uint8_t *tail = data + 16 * nblocks;
    const std::size_t rem = len & 15;
    if (rem > 8) {
        uint64_t k2 = loadTail(tail + 8, rem - 8);
        k2 *= c2;
        k2 = rotl64(k2, 33);
        k2 *= c1;
        h2 ^= k2;
    }
    if (rem > 0) {
        uint64_t k1 = loadTail(tail, rem < 8 ? rem : 8);
        k1 *= c1;
        k1 = rotl64(k1, 31);
        k1 *= c2;
        h1 ^= k1;
    }

    h1 ^= uint64_t(len);
    h2 ^= uint64_t(len);
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    return {h1, h2};
}

void
Encoder::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(uint8_t(v >> (8 * i)));
}

void
Encoder::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(uint8_t(v >> (8 * i)));
}

void
Encoder::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

void
Encoder::str(std::string_view s)
{
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

Fingerprint
Encoder::digest() const
{
    return hashBytes(bytes_.data(), bytes_.size());
}

void
encodeTopology(Encoder &enc, const arch::Architecture &arch)
{
    enc.u64(arch.numQubits());
    for (const arch::Coord &c : arch.layout().coords()) {
        enc.i32(c.row);
        enc.i32(c.col);
    }
    const auto &buses = arch.fourQubitBuses();
    enc.u64(buses.size());
    for (const arch::Coord &b : buses) {
        enc.i32(b.row);
        enc.i32(b.col);
    }
}

void
encodeArchitecture(Encoder &enc, const arch::Architecture &arch)
{
    encodeTopology(enc, arch);
    const bool assigned = arch.frequenciesAssigned();
    enc.u8(assigned ? 1 : 0);
    if (assigned)
        for (arch::PhysQubit q = 0; q < arch.numQubits(); ++q)
            enc.f64(arch.frequency(q));
}

void
encodeCollisionModel(Encoder &enc, const yield::CollisionModel &model)
{
    enc.f64(model.delta);
    enc.f64(model.thr1);
    enc.f64(model.thr2);
    enc.f64(model.thr3);
    enc.f64(model.thr5);
    enc.f64(model.thr6);
    enc.f64(model.thr7);
}

} // namespace qpad::cache
