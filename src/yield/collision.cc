#include "yield/collision.hh"

namespace qpad::yield
{

using arch::PhysQubit;

CollisionChecker::CollisionChecker(const arch::Architecture &arch,
                                   const CollisionModel &model)
    : model_(model)
{
    for (auto [a, b] : arch.edges())
        pairs_.push_back({a, b});
    const auto &adj = arch.adjacency();
    for (PhysQubit j = 0; j < arch.numQubits(); ++j) {
        const auto &neighbors = adj[j];
        for (std::size_t x = 0; x < neighbors.size(); ++x)
            for (std::size_t y = x + 1; y < neighbors.size(); ++y)
                triples_.push_back({j, neighbors[x], neighbors[y]});
    }
}

namespace
{

using Scalar = Conditions<ScalarOps>;

/**
 * The pair conditions 1-4 as bits. StopAtFirst restores the predicate
 * callers' intra-term short-circuit (the mask is then only meaningful
 * as zero/nonzero).
 */
template <bool StopAtFirst>
inline unsigned
pairMask(const Scalar &c, double fa, double fb)
{
    unsigned mask = 0;
    if (c.c1(fa, fb)) {
        mask |= 1u << 1;
        if constexpr (StopAtFirst)
            return mask;
    }
    if (c.c2(fa, fb) || c.c2(fb, fa)) {
        mask |= 1u << 2;
        if constexpr (StopAtFirst)
            return mask;
    }
    if (c.c3(fa, fb) || c.c3(fb, fa)) {
        mask |= 1u << 3;
        if constexpr (StopAtFirst)
            return mask;
    }
    if (c.c4(fa, fb) || c.c4(fb, fa))
        mask |= 1u << 4;
    return mask;
}

/** Same for the triple conditions 5-7 (shared neighbour j). */
template <bool StopAtFirst>
inline unsigned
tripleMask(const Scalar &c, double fj, double fk, double fi)
{
    unsigned mask = 0;
    if (c.c5(fi, fk)) {
        mask |= 1u << 5;
        if constexpr (StopAtFirst)
            return mask;
    }
    if (c.c6(fi, fk) || c.c6(fk, fi)) {
        mask |= 1u << 6;
        if constexpr (StopAtFirst)
            return mask;
    }
    if (c.c7(fj, fk, fi))
        mask |= 1u << 7;
    return mask;
}

} // namespace

unsigned
pairConditionMask(const CollisionModel &model, double fa, double fb)
{
    return pairMask<false>(Scalar(model), fa, fb);
}

unsigned
tripleConditionMask(const CollisionModel &model, double fj, double fk,
                    double fi)
{
    return tripleMask<false>(Scalar(model), fj, fk, fi);
}

bool
pairCollides(const CollisionModel &model, double fa, double fb)
{
    return pairMask<true>(Scalar(model), fa, fb) != 0;
}

bool
tripleCollides(const CollisionModel &model, double fj, double fk,
               double fi)
{
    return tripleMask<true>(Scalar(model), fj, fk, fi) != 0;
}

bool
CollisionChecker::anyCollision(const std::vector<double> &freqs) const
{
    const Scalar c(model_);
    for (const PairTerm &p : pairs_)
        if (pairMask<true>(c, freqs[p.a], freqs[p.b]))
            return true;
    for (const TripleTerm &t : triples_)
        if (tripleMask<true>(c, freqs[t.j], freqs[t.k], freqs[t.i]))
            return true;
    return false;
}

ConditionCounts
CollisionChecker::countCollisions(const std::vector<double> &freqs) const
{
    const Scalar c(model_);
    ConditionCounts counts{};
    for (const PairTerm &p : pairs_) {
        const unsigned mask = pairMask<false>(c, freqs[p.a], freqs[p.b]);
        for (int c = 1; c <= 4; ++c)
            counts[c] += (mask >> c) & 1u;
    }
    for (const TripleTerm &t : triples_) {
        const unsigned mask =
            tripleMask<false>(c, freqs[t.j], freqs[t.k], freqs[t.i]);
        for (int c = 5; c <= 7; ++c)
            counts[c] += (mask >> c) & 1u;
    }
    return counts;
}

} // namespace qpad::yield
