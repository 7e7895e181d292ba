#include "mapping/sabre.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "circuit/dag.hh"
#include "circuit/decompose.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace qpad::mapping
{

using arch::PhysQubit;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

namespace
{

/**
 * One routing direction in flat form, built once per mapping
 * call: pointers to the caller's gates in routing order, their
 * dependency DAG (barriers spanning the chip), and a two-qubit flag
 * and the two logical operands per gate.
 */
struct RoutingView
{
    RoutingView(std::string label, std::vector<const Gate *> order,
                std::size_t chip_qubits)
        : name(std::move(label)), gates(std::move(order)),
          dag(gates, chip_qubits), roots(dag.roots()),
          two_qubit(gates.size()), operands(gates.size())
    {
        for (std::size_t id = 0; id < gates.size(); ++id) {
            const Gate &g = *gates[id];
            if (g.isTwoQubit()) {
                two_qubit[id] = 1;
                operands[id] = {g.qubits[0], g.qubits[1]};
            }
        }
    }

    std::size_t size() const { return gates.size(); }

    std::string name;
    std::vector<const Gate *> gates;
    circuit::DependencyDag dag;
    /** Gates without predecessors, ascending: the first front. */
    std::vector<uint32_t> roots;
    std::vector<uint8_t> two_qubit;
    /** Logical operands; meaningful only where two_qubit is set. */
    std::vector<std::array<Qubit, 2>> operands;
};

/**
 * The chip's all-pairs distances as a dense row-major n x n table.
 * Lookups are unchecked: the router's operands are the chip's edges
 * and the images of a permutation of the chip, checked once per pass.
 */
class DistanceTable
{
  public:
    explicit DistanceTable(const arch::Architecture &arch)
        : n_(arch.numQubits()), d_(n_ * n_)
    {
        const SymMatrix<uint16_t> &dist = arch.distances();
        for (std::size_t i = 0; i < n_; ++i)
            for (std::size_t j = 0; j < n_; ++j)
                d_[i * n_ + j] = dist(i, j);
    }

    std::size_t size() const { return n_; }

    uint16_t
    operator()(PhysQubit a, PhysQubit b) const
    {
        return d_[a * n_ + b];
    }

  private:
    std::size_t n_;
    std::vector<uint16_t> d_;
};

void
applySwap(PhysQubit pa, PhysQubit pb, std::vector<PhysQubit> &l2p,
          std::vector<Qubit> &p2l)
{
    Qubit la = p2l[pa], lb = p2l[pb];
    std::swap(p2l[pa], p2l[pb]);
    l2p[la] = pb;
    l2p[lb] = pa;
}

/**
 * Routing passes over the views of one mapping call. Works over
 * an "extended" logical space the size of the chip: logical ids >=
 * circuit width are dummies occupying the spare physical qubits so
 * SWAPs stay a permutation. The scratch buffers are reused from step
 * to step and pass to pass, and belong to this call alone.
 */
class Router
{
  public:
    Router(const arch::Architecture &arch, const MappingOptions &options,
           exec::TimePoint deadline)
        : edges_(arch.edges()), options_(options), deadline_(deadline),
          dist_(arch), words_((edges_.size() + 63) / 64),
          incident_(arch.numQubits() * words_, 0), mask_(words_),
          pair_slot_(arch.numQubits() * arch.numQubits(), 0)
    {
        for (std::size_t e = 0; e < edges_.size(); ++e) {
            const uint64_t bit = uint64_t{1} << (e % 64);
            incident_[edges_[e].first * words_ + e / 64] |= bit;
            incident_[edges_[e].second * words_ + e / 64] |= bit;
        }
    }

    /** Gate `gate` executed, or a SWAP of (pa, pb) if gate == kSwap. */
    struct Op
    {
        uint32_t gate;
        PhysQubit pa = 0, pb = 0;
    };
    static constexpr uint32_t kSwap = std::numeric_limits<uint32_t>::max();

    struct PassResult
    {
        std::vector<PhysQubit> final_l2p;
        std::size_t swaps = 0;
        std::vector<Op> ops; // only filled when recording
    };

    /**
     * Route `view` starting from logical->physical map l2p
     * (size = chip size; entries past the circuit width are dummies).
     */
    PassResult
    route(const RoutingView &view, std::vector<PhysQubit> l2p,
          bool record)
    {
        exec::throwIfPassed(deadline_);
        QPAD_SPAN("mapping.route");
        const std::size_t n_phys = dist_.size();
        qpad_assert(l2p.size() == n_phys, "l2p must cover the chip");

        // The one check of the physical operands the distance table
        // and p2l_ are indexed by: l2p must permute the chip.
        constexpr Qubit unset = std::numeric_limits<Qubit>::max();
        p2l_.assign(n_phys, unset);
        for (Qubit l = 0; l < l2p.size(); ++l) {
            qpad_assert(l2p[l] < n_phys && p2l_[l2p[l]] == unset,
                        "l2p is not a permutation of the chip");
            p2l_[l2p[l]] = l;
        }
        indeg_.assign(view.dag.indegrees().begin(),
                      view.dag.indegrees().end());
        front_ = view.roots;
        decay_.assign(n_phys, 1.0);

        PassResult result;
        std::size_t executed = 0;
        const std::size_t max_swaps =
            1000 + 20 * view.size() * (n_phys + 1);
        // Set when a gate executed since the last SWAP choice: the
        // front changed, so the lookahead set must be rebuilt, and
        // executing a gate resets the decay window.
        bool front_changed = true;

        while (!front_.empty()) {
            // Execute everything executable in the current front.
            bool progress = true;
            while (progress) {
                progress = false;
                blocked_.clear();
                // Index loop: newly ready gates are appended to
                // `front_` and picked up in the same sweep.
                for (std::size_t idx = 0; idx < front_.size(); ++idx) {
                    const uint32_t id = front_[idx];
                    if (view.two_qubit[id]) {
                        const auto &[a, b] = view.operands[id];
                        if (dist_(l2p[a], l2p[b]) != 1) {
                            blocked_.push_back(id);
                            continue;
                        }
                    }
                    if (record)
                        result.ops.push_back({id});
                    for (uint32_t succ : view.dag.successors(id))
                        if (--indeg_[succ] == 0)
                            front_.push_back(succ);
                    ++executed;
                    progress = true;
                    front_changed = true;
                }
                front_.swap(blocked_);
            }
            if (front_.empty())
                break;

            // All remaining front gates are blocked two-qubit gates:
            // pick the best SWAP.
            if (front_changed) {
                std::fill(decay_.begin(), decay_.end(), 1.0);
                extendedSet(view);
                front_changed = false;
            }
            auto [pa, pb] = bestSwap(view, l2p);
            applySwap(pa, pb, l2p, p2l_);
            decay_[pa] += options_.decay_delta;
            decay_[pb] += options_.decay_delta;
            ++result.swaps;
            if (record)
                result.ops.push_back({kSwap, pa, pb});
            if (result.swaps > max_swaps)
                qpad_panic("router stalled after ", result.swaps,
                           " swaps on '", view.name, "'");
        }
        qpad_assert(executed == view.size(), "router dropped gates");
        result.final_l2p = std::move(l2p);
        return result;
    }

  private:
    using Edge = std::pair<PhysQubit, PhysQubit>;

    /** A distinct lookahead pair (logical ids, then their physical
     * images) and how many window entries it stands for. */
    struct Pair
    {
        Qubit a, b;
        uint32_t count;
    };

    /** Undirected coupling edges (a < b), sorted. */
    const std::vector<Edge> &edges_;
    const MappingOptions &options_;
    const exec::TimePoint deadline_;
    const DistanceTable dist_;
    /** Bit rows over edges_: bit e of qubit p's row is set iff edge
     * e touches p; words_ words a row. */
    const std::size_t words_;
    std::vector<uint64_t> incident_;

    // Per-pass state and per-step scratch.
    std::vector<Qubit> p2l_;
    std::vector<uint32_t> indeg_, front_, blocked_;
    std::vector<double> decay_;
    std::vector<uint32_t> frontier_, ext_ids_;
    std::vector<uint64_t> mask_;
    std::vector<Edge> front_ends_, candidates_;
    /** The window folded into distinct pairs. */
    std::vector<Pair> pairs_, pair_ends_;
    /** 1 + index into pairs_ of logical pair (lo, hi) at lo * n + hi;
     * all zero between folds. */
    std::vector<uint32_t> pair_slot_;

    /**
     * Two-qubit gates reachable from the front (lookahead window),
     * into ext_ids_. A breadth-first walk that re-pushes successors
     * reachable along several paths, so a gate can enter the window
     * more than once. The window is then folded into pairs_: one
     * entry per distinct unordered operand pair, counting its
     * entries.
     */
    void
    extendedSet(const RoutingView &view)
    {
        const std::size_t limit = options_.extended_set_size;
        ext_ids_.clear();
        frontier_.assign(front_.begin(), front_.end());
        for (std::size_t cursor = 0;
             cursor < frontier_.size() && ext_ids_.size() < limit;
             ++cursor) {
            for (uint32_t succ : view.dag.successors(frontier_[cursor])) {
                if (view.two_qubit[succ]) {
                    ext_ids_.push_back(succ);
                    if (ext_ids_.size() >= limit)
                        break;
                }
                frontier_.push_back(succ);
            }
        }

        const std::size_t n = dist_.size();
        pairs_.clear();
        for (uint32_t id : ext_ids_) {
            const auto [a, b] = view.operands[id];
            const Qubit lo = std::min(a, b), hi = std::max(a, b);
            uint32_t &slot = pair_slot_[lo * n + hi];
            if (slot == 0) {
                pairs_.push_back({lo, hi, 0});
                slot = uint32_t(pairs_.size());
            }
            ++pairs_[slot - 1].count;
        }
        for (const Pair &p : pairs_)
            pair_slot_[p.a * n + p.b] = 0;
    }

    /**
     * The SWAP minimizing max(decay) * (mean front distance +
     * extended_weight * mean lookahead distance), first in (pa, pb)
     * order on ties. The lookahead sum is taken over the distinct
     * pairs, each distance times its count, and divided by the
     * window's full entry count. Distance sums are exact integers, so
     * the double arithmetic on them does not depend on how they are
     * summed.
     */
    std::pair<PhysQubit, PhysQubit>
    bestSwap(const RoutingView &view, const std::vector<PhysQubit> &l2p)
    {
        // Physical endpoints of the front gates and lookahead pairs.
        front_ends_.clear();
        for (uint32_t id : front_) {
            const auto &[a, b] = view.operands[id];
            front_ends_.emplace_back(l2p[a], l2p[b]);
        }
        pair_ends_.clear();
        for (const Pair &p : pairs_)
            pair_ends_.push_back({l2p[p.a], l2p[p.b], p.count});

        // Candidate swaps: edges touching any physical qubit that
        // hosts an operand of a blocked front gate, in the chip's
        // sorted edge order (the set bits of the front's rows,
        // lowest first).
        std::fill(mask_.begin(), mask_.end(), 0);
        for (auto [a, b] : front_ends_) {
            for (std::size_t w = 0; w < words_; ++w)
                mask_[w] |= incident_[a * words_ + w] |
                            incident_[b * words_ + w];
        }
        candidates_.clear();
        for (std::size_t w = 0; w < words_; ++w)
            for (uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1)
                candidates_.push_back(
                    edges_[w * 64 + std::countr_zero(bits)]);
        qpad_assert(!candidates_.empty(), "no candidate swaps");

        const double front_terms = double(front_ends_.size());
        const double ext_terms = double(ext_ids_.size());
        double best_score = std::numeric_limits<double>::infinity();
        Edge best = candidates_.front();
        for (auto [pa, pb] : candidates_) {
            auto moved = [pa, pb](PhysQubit p) {
                return p == pa ? pb : p == pb ? pa : p;
            };
            std::size_t front_sum = 0;
            for (auto [a, b] : front_ends_)
                front_sum += dist_(moved(a), moved(b));
            const double front_cost = double(front_sum) / front_terms;
            double ext_cost = 0.0;
            if (!ext_ids_.empty()) {
                std::size_t ext_sum = 0;
                for (const Pair &p : pair_ends_)
                    ext_sum += std::size_t(p.count) *
                               dist_(moved(p.a), moved(p.b));
                ext_cost =
                    options_.extended_weight * double(ext_sum) / ext_terms;
            }
            const double score = std::max(decay_[pa], decay_[pb]) *
                                 (front_cost + ext_cost);
            if (score < best_score) {
                best_score = score;
                best = {pa, pb};
            }
        }
        return best;
    }
};

/** What both entry points take from one call's candidate search. */
struct Search
{
    /** The forward view's gates: the circuit's non-measurements. */
    std::vector<const Gate *> gates;
    /** The measurements, (logical qubit, clbit), in circuit order. */
    std::vector<std::pair<Qubit, circuit::Clbit>> measures;
    /** The winning candidate's logical -> physical start. */
    std::vector<PhysQubit> initial;
    /** Its forward pass; ops are filled only when recording. */
    Router::PassResult pass;
};

/**
 * The search both entry points run: check the inputs, build the
 * views, refine the SABRE start, then route each candidate initial
 * mapping forward and keep the first with the fewest SWAPs. Only
 * mapCircuit, which replays the winner, asks the passes to `record`
 * their ops.
 */
Search
searchMapping(const Circuit &circuit, const arch::Architecture &arch,
              const MappingOptions &options, exec::TimePoint deadline,
              bool record)
{
    // Negative, infinite or NaN weights make the cost meaningless
    // and can keep the router swapping forever.
    if (!(std::isfinite(options.extended_weight) &&
          options.extended_weight >= 0.0))
        qpad_fatal("mapping: extended_weight must be finite and >= 0, "
                   "got ", options.extended_weight);
    if (!(std::isfinite(options.decay_delta) &&
          options.decay_delta >= 0.0))
        qpad_fatal("mapping: decay_delta must be finite and >= 0, got ",
                   options.decay_delta);
    qpad_assert(circuit.numQubits() <= arch.numQubits(),
                "circuit '", circuit.name(), "' needs ",
                circuit.numQubits(), " qubits but chip has ",
                arch.numQubits());
    qpad_assert(arch.isConnectedGraph(),
                "architecture coupling graph is disconnected");
    qpad_assert(circuit::isInBasis(circuit),
                "circuit must be lowered to the {1q, CX} basis");
    static obs::Counter &calls = obs::counter("mapping.calls");
    calls.add();

    // Forward order routes everything but the measurements, with
    // barriers spanning the chip; the measurements are re-appended
    // after routing.
    Search search;
    std::vector<const Gate *> unitary;
    unitary.reserve(circuit.size());
    for (const Gate &g : circuit.gates()) {
        if (g.kind == GateKind::Measure)
            search.measures.emplace_back(g.qubits[0], g.clbit);
        else
            unitary.push_back(&g);
    }
    RoutingView forward(circuit.name(), std::move(unitary),
                        arch.numQubits());
    Router router(arch, options, deadline);

    // Candidate initial mappings: the identity (qpad layouts use an
    // identity pseudo-mapping, so this is often already perfect) and
    // the SABRE reverse-traversal refinement of a random start.
    std::vector<std::vector<PhysQubit>> candidates;
    std::vector<PhysQubit> identity(arch.numQubits());
    std::iota(identity.begin(), identity.end(), 0);
    candidates.push_back(identity);

    if (options.sabre_initial_mapping) {
        Rng rng(options.seed);
        std::vector<PhysQubit> l2p = identity;
        // Random starting permutation, then reverse-traversal
        // refinement: forward pass yields the initial mapping of the
        // reverse circuit and vice versa.
        for (std::size_t i = l2p.size(); i > 1; --i)
            std::swap(l2p[i - 1], l2p[rng.below(i)]);
        // Backward order: the unitary gates only, reversed.
        std::vector<const Gate *> reversed;
        reversed.reserve(forward.size());
        for (auto it = forward.gates.rbegin(); it != forward.gates.rend();
             ++it)
            if ((*it)->kind != GateKind::Reset &&
                (*it)->kind != GateKind::Barrier)
                reversed.push_back(*it);
        const RoutingView backward(circuit.name() + "_rev",
                                   std::move(reversed), arch.numQubits());
        for (unsigned round = 0; round < options.initial_mapping_rounds;
             ++round) {
            l2p = router.route(forward, std::move(l2p), false).final_l2p;
            l2p = router.route(backward, std::move(l2p), false)
                      .final_l2p;
        }
        candidates.push_back(std::move(l2p));
    }

    // Route every candidate and keep the cheapest mapping.
    std::size_t best = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        Router::PassResult attempt =
            router.route(forward, candidates[i], record);
        if (i == 0 || attempt.swaps < search.pass.swaps) {
            search.pass = std::move(attempt);
            best = i;
        }
    }
    static obs::Counter &swaps = obs::counter("mapping.swaps");
    swaps.add(search.pass.swaps);
    search.gates = std::move(forward.gates);
    search.initial = std::move(candidates[best]);
    return search;
}

} // namespace

MappingResult
mapCircuit(const Circuit &circuit, const arch::Architecture &arch,
           const MappingOptions &options, exec::TimePoint deadline)
{
    QPAD_SPAN("mapping.map");
    Search search = searchMapping(circuit, arch, options, deadline, true);
    const Router::PassResult &pass = search.pass;

    MappingResult result;
    result.initial_mapping.assign(
        search.initial.begin(),
        search.initial.begin() + circuit.numQubits());
    result.swaps = pass.swaps;
    result.final_mapping.assign(
        pass.final_l2p.begin(),
        pass.final_l2p.begin() + circuit.numQubits());

    // Materialize the physical circuit by replaying the pass: each
    // gate takes the mapping current at its execution, and a SWAP
    // lowers to three CX.
    Circuit mapped(arch.numQubits(), circuit.numClbits(),
                   circuit.name() + "@" + arch.name());
    std::vector<PhysQubit> l2p = std::move(search.initial);
    std::vector<Qubit> p2l(l2p.size());
    for (Qubit l = 0; l < l2p.size(); ++l)
        p2l[l2p[l]] = l;
    for (const Router::Op &op : pass.ops) {
        if (op.gate == Router::kSwap) {
            mapped.cx(op.pa, op.pb);
            mapped.cx(op.pb, op.pa);
            mapped.cx(op.pa, op.pb);
            applySwap(op.pa, op.pb, l2p, p2l);
        } else {
            Gate phys = *search.gates[op.gate];
            for (auto &q : phys.qubits)
                q = l2p[q];
            mapped.add(std::move(phys));
        }
    }
    qpad_assert(l2p == pass.final_l2p, "replayed mapping diverged");
    for (auto [lq, cb] : search.measures)
        mapped.measure(pass.final_l2p[lq], cb);

    result.total_gates = mapped.unitaryGateCount();
    result.two_qubit_gates = mapped.twoQubitGateCount();
    result.mapped = std::move(mapped);
    return result;
}

MappingCounts
countMapping(const Circuit &circuit, const arch::Architecture &arch,
             const MappingOptions &options, exec::TimePoint deadline)
{
    QPAD_SPAN("mapping.map");
    const std::size_t swaps =
        searchMapping(circuit, arch, options, deadline, false).pass.swaps;
    // The replay would emit every routed gate once and three CX per
    // SWAP; measurements, resets and barriers are not unitary.
    return {swaps, circuit.unitaryGateCount() + 3 * swaps};
}

bool
respectsCoupling(const Circuit &mapped, const arch::Architecture &arch)
{
    for (const Gate &g : mapped.gates()) {
        if (!g.isTwoQubit())
            continue;
        if (!arch.connected(g.qubits[0], g.qubits[1]))
            return false;
    }
    return true;
}

} // namespace qpad::mapping
