/**
 * @file
 * IBM's seven frequency-collision conditions (paper Figure 3).
 *
 * Conditions 1-4 constrain the two post-fabrication frequencies of
 * every connected qubit pair; conditions 5-7 constrain every triple
 * (k, i both connected to j). The checker pre-extracts those terms
 * from an Architecture's coupling graph so the Monte Carlo loop is
 * a flat scan over primitive comparisons.
 */

#ifndef QPAD_YIELD_COLLISION_HH
#define QPAD_YIELD_COLLISION_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/architecture.hh"

namespace qpad::yield
{

/** Thresholds of the seven collision conditions (GHz). */
struct CollisionModel
{
    double delta = arch::DeviceConstants::anharmonicity_ghz;
    double thr1 = 0.017; ///< f_j ~ f_k
    double thr2 = 0.004; ///< f_j ~ f_k - delta/2
    double thr3 = 0.025; ///< f_j ~ f_k - delta
    // Condition 4 (f_j > f_k - delta) has no threshold.
    double thr5 = 0.017; ///< f_i ~ f_k          (shared neighbour j)
    double thr6 = 0.025; ///< f_i ~ f_k - delta  (shared neighbour j)
    double thr7 = 0.017; ///< 2 f_j + delta ~ f_k + f_i
};

/**
 * The seven conditions, written once for every lane type: the scalar
 * oracle below and the batched kernel's lane groups
 * (collision_batch.cc) evaluate them, and Algorithm 3's candidate
 * sweep (design/freq_sweep.cc) settles its range ends with them.
 * `Ops` gives a lane type V, its mask type M (a lane is set where a
 * condition fires) and splat, add, sub, abs, lt (<) and either (mask
 * OR), each an IEEE-754 correctly-rounded or exact bit operation. The
 * operand order of every condition is fixed here and nowhere else, so
 * each instantiation rounds alike and all of them agree bit for bit
 * on every input.
 *
 * The constants are the model's times `scale`: 1 keeps GHz, and
 * 1 / step gives the sweep's grid-index units, in which only the
 * constants mean anything.
 */
template <typename Ops>
struct Conditions
{
    using V = typename Ops::V;
    using M = typename Ops::M;

    explicit Conditions(const CollisionModel &m, double scale = 1.0)
        : d(Ops::splat(m.delta * scale)),
          dh(Ops::splat(m.delta / 2 * scale)),
          t1(Ops::splat(m.thr1 * scale)), t2(Ops::splat(m.thr2 * scale)),
          t3(Ops::splat(m.thr3 * scale)), t5(Ops::splat(m.thr5 * scale)),
          t6(Ops::splat(m.thr6 * scale)), t7(Ops::splat(m.thr7 * scale))
    {
    }

    /** delta, delta / 2 and the thresholds. */
    V d, dh, t1, t2, t3, t5, t6, t7;

    /** 1: |f_a - f_b| < thr1 (symmetric). */
    M c1(V a, V b) const { return near(a, b, t1); }
    /** 2: f_a ~ f_b - delta/2; a pair checks both orientations (either
     * qubit may act as the cross-resonance control), as for 3 and 4. */
    M c2(V a, V b) const { return near(a, Ops::sub(b, dh), t2); }
    /** 3: f_a ~ f_b - delta. */
    M c3(V a, V b) const { return near(a, Ops::sub(b, d), t3); }
    /** 4: f_a > f_b - delta. delta < 0, so with both orientations it
     * fires when the detuning exceeds the anharmonicity. */
    M c4(V a, V b) const { return Ops::lt(Ops::sub(b, d), a); }
    /** 5: |f_i - f_k| < thr5 (symmetric in i, k; shared neighbour j). */
    M c5(V i, V k) const { return near(i, k, t5); }
    /** 6: f_i ~ f_k - delta; a triple checks both orientations. */
    M c6(V i, V k) const { return near(i, Ops::sub(k, d), t6); }
    /** 7: 2 f_j + delta ~ f_k + f_i (symmetric in i, k). */
    M c7(V j, V k, V i) const
    {
        return near(Ops::add(Ops::add(j, j), d), Ops::add(k, i), t7);
    }

    /** Conditions 1-4 on a connected pair, both orientations. */
    M pair(V a, V b) const
    {
        return any(c1(a, b), c2(a, b), c2(b, a), c3(a, b), c3(b, a),
                   c4(a, b), c4(b, a));
    }
    /** Conditions 5-6, the ones that do not involve the triple's j. */
    M outerPair(V k, V i) const
    {
        return any(c5(i, k), c6(i, k), c6(k, i));
    }
    /** Conditions 5-7 on a triple with shared neighbour j. */
    M triple(V j, V k, V i) const
    {
        return any(outerPair(k, i), c7(j, k, i));
    }

  private:
    static M near(V value, V target, V thr)
    {
        return Ops::lt(Ops::abs(Ops::sub(value, target)), thr);
    }

    template <typename... Ms>
    static M any(M m, Ms... ms)
    {
        ((m = Ops::either(m, ms)), ...);
        return m;
    }
};

namespace
{
/**
 * Conditions' ops on one double. In an unnamed namespace, like
 * common/vec8.hh: each includer instantiates its own copy under its
 * own compile flags.
 */
struct ScalarOps
{
    using V = double;
    using M = bool;
    static double splat(double x) { return x; }
    static double add(double a, double b) { return a + b; }
    static double sub(double a, double b) { return a - b; }
    static double abs(double a) { return std::fabs(a); }
    static bool lt(double a, double b) { return a < b; }
    static bool either(bool a, bool b) { return a | b; }
};
} // namespace

/** Per-condition hit counters (index 1..7; index 0 unused). */
using ConditionCounts = std::array<std::size_t, 8>;

/**
 * Bitmask of the pair conditions firing on a connected pair: bit c
 * is set iff condition c (1..4) fires, both orientations checked.
 * pairCollides and CollisionChecker::countCollisions read the same
 * Conditions, so the any/count views cannot drift apart.
 */
unsigned pairConditionMask(const CollisionModel &model, double fa,
                           double fb);

/** Same for the triple conditions: bits 5..7, shared neighbour j. */
unsigned tripleConditionMask(const CollisionModel &model, double fj,
                             double fk, double fi);

/** Conditions 1-4 on a connected pair (both orientations checked). */
bool pairCollides(const CollisionModel &model, double fa, double fb);

/** Conditions 5-7 on a triple with shared neighbour j. */
bool tripleCollides(const CollisionModel &model, double fj, double fk,
                    double fi);

/**
 * Collision predicate specialized to one architecture's coupling
 * graph. Frequencies are passed per call so one checker serves the
 * whole Monte Carlo.
 */
class CollisionChecker
{
  public:
    CollisionChecker() = default;
    explicit CollisionChecker(const arch::Architecture &arch,
                              const CollisionModel &model = {});

    /** Connected pair terms (conditions 1-4). */
    struct PairTerm
    {
        arch::PhysQubit a, b;
    };

    /** Triple terms: k and i both neighbours of j (conditions 5-7). */
    struct TripleTerm
    {
        arch::PhysQubit j, k, i;
    };

    const std::vector<PairTerm> &pairs() const { return pairs_; }
    const std::vector<TripleTerm> &triples() const { return triples_; }
    const CollisionModel &model() const { return model_; }

    /** True if any condition fires for the given frequencies. */
    bool anyCollision(const std::vector<double> &freqs) const;

    /**
     * Count how often each condition fires (for diagnostics); more
     * expensive than anyCollision, which short-circuits.
     */
    ConditionCounts countCollisions(const std::vector<double> &freqs)
        const;

  private:
    CollisionModel model_;
    std::vector<PairTerm> pairs_;
    std::vector<TripleTerm> triples_;
};

} // namespace qpad::yield

#endif // QPAD_YIELD_COLLISION_HH
