/**
 * @file
 * Content-addressed fingerprints for the result cache.
 *
 * A Fingerprint is a 128-bit digest of a *canonical binary encoding*
 * of the cached computation's inputs. The encoding is explicit and
 * platform-independent — fixed-width little-endian integers, doubles
 * as their IEEE-754 bit patterns, length-prefixed byte strings — so
 * the same architecture and options hash to the same key on every
 * machine and in every build, which is what lets tests pin keys. The
 * digest itself is MurmurHash3 x64/128, chosen for speed and a fixed
 * public specification (no dependence on std::hash, whose values are
 * implementation-defined).
 *
 * Keys are *exact*: two inputs collide only if their canonical
 * encodings collide in the 128-bit hash (~2^-64 birthday risk over
 * astronomically more entries than any design sweep produces). Every
 * key starts with a domain tag string and a format version, so
 * distinct record kinds (yield results, frequency allocations,
 * routing counts) key apart and an encoding change moves every key
 * of its domain.
 */

#ifndef QPAD_CACHE_FINGERPRINT_HH
#define QPAD_CACHE_FINGERPRINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/architecture.hh"
#include "yield/collision.hh"

namespace qpad::cache
{

/** 128-bit content digest; equality-comparable and hashable. */
struct Fingerprint
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const Fingerprint &) const = default;

    /** 32-character lowercase hex rendering (hi then lo). */
    std::string hex() const;
};

/** Hash for unordered_map keys (the digest is already well mixed). */
struct FingerprintHash
{
    std::size_t
    operator()(const Fingerprint &f) const
    {
        return std::size_t(f.lo ^ f.hi);
    }
};

/** MurmurHash3 x64/128 of a byte buffer (seed 0). */
Fingerprint hashBytes(const uint8_t *data, std::size_t len);

/**
 * Builder for canonical encodings. Append order is significant; all
 * multi-byte values are written little-endian regardless of host
 * endianness.
 */
class Encoder
{
  public:
    void u8(uint8_t v) { bytes_.push_back(v); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    /** IEEE-754 bit pattern; -0.0 and 0.0 intentionally differ. */
    void f64(double v);
    /** Length-prefixed byte string (for domain tags). */
    void str(std::string_view s);

    /** Digest of everything appended so far. */
    Fingerprint digest() const;

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Canonical encoding of an architecture's yield-relevant content:
 * qubit coordinates (in physical-qubit order), 4-qubit bus origins,
 * and the assigned frequencies (with an explicit assigned flag).
 * The name is deliberately excluded — identically shaped chips are
 * the same content — as are derived caches (coupling graph,
 * distances), which are pure functions of the encoded fields.
 */
void encodeArchitecture(Encoder &enc, const arch::Architecture &arch);

/** Topology only (coords + buses, no frequencies): the input of the
 * frequency allocator, which never reads pre-existing assignments. */
void encodeTopology(Encoder &enc, const arch::Architecture &arch);

/** All seven collision thresholds plus the anharmonicity delta. */
void encodeCollisionModel(Encoder &enc,
                          const yield::CollisionModel &model);

} // namespace qpad::cache

#endif // QPAD_CACHE_FINGERPRINT_HH
