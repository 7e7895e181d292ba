#include "mapping/sabre.hh"

#include <algorithm>
#include <array>
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
 * One routing direction in flat form, built once per mapCircuit
 * call: the dependency DAG in CSR form, with every gate's successors
 * in circuit::DependencyDag order (the order the lookahead walks),
 * plus a two-qubit flag and the two logical operands per gate.
 */
struct RoutingView
{
    explicit RoutingView(const Circuit &circ)
        : name(circ.name()), indegree(circ.size()),
          two_qubit(circ.size()), operands(circ.size())
    {
        qpad_assert(circ.size() < std::numeric_limits<uint32_t>::max(),
                    "circuit too large to route");
        const circuit::DependencyDag dag(circ);
        succ_begin.reserve(circ.size() + 1);
        succ_begin.push_back(0);
        for (uint32_t id = 0; id < circ.size(); ++id) {
            for (std::size_t s : dag.successors(id))
                succ.push_back(uint32_t(s));
            succ_begin.push_back(uint32_t(succ.size()));
            indegree[id] = uint32_t(dag.indegree(id));
            if (indegree[id] == 0)
                roots.push_back(id);
            const Gate &g = circ.gate(id);
            if (g.isTwoQubit()) {
                two_qubit[id] = 1;
                operands[id] = {g.qubits[0], g.qubits[1]};
            }
        }
    }

    std::size_t size() const { return two_qubit.size(); }

    std::string name;
    /** Successors of gate g: succ[succ_begin[g] .. succ_begin[g+1]). */
    std::vector<uint32_t> succ_begin;
    std::vector<uint32_t> succ;
    std::vector<uint32_t> indegree;
    /** Gates without predecessors, ascending: the first front. */
    std::vector<uint32_t> roots;
    std::vector<uint8_t> two_qubit;
    /** Logical operands; meaningful only where two_qubit is set. */
    std::vector<std::array<Qubit, 2>> operands;
};

/** The chip's all-pairs distances as a dense row-major n x n table. */
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
        qpad_assert(a < n_ && b < n_, "distance (", a, ",", b,
                    ") out of range ", n_);
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
 * Routing passes over the views of one mapCircuit call. Works over
 * an "extended" logical space the size of the chip: logical ids >=
 * circuit width are dummies occupying the spare physical qubits so
 * SWAPs stay a permutation. The scratch buffers are reused from step
 * to step and pass to pass, and belong to this call alone.
 */
class Router
{
  public:
    Router(const arch::Architecture &arch, const MappingOptions &options,
           const exec::Context &ctx)
        : edges_(arch.edges()), options_(options), ctx_(ctx),
          dist_(arch), hosts_front_(arch.numQubits(), 0)
    {
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
        ctx_.throwIfStopped();
        QPAD_SPAN("mapping.route");
        const std::size_t n_phys = dist_.size();
        qpad_assert(l2p.size() == n_phys, "l2p must cover the chip");

        p2l_.resize(n_phys);
        for (Qubit l = 0; l < l2p.size(); ++l)
            p2l_[l2p[l]] = l;
        indeg_ = view.indegree;
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
                    for (uint32_t k = view.succ_begin[id];
                         k < view.succ_begin[id + 1]; ++k)
                        if (--indeg_[view.succ[k]] == 0)
                            front_.push_back(view.succ[k]);
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

    /** Undirected coupling edges (a < b), sorted. */
    const std::vector<Edge> &edges_;
    const MappingOptions &options_;
    const exec::Context &ctx_;
    const DistanceTable dist_;

    // Per-pass state and per-step scratch.
    std::vector<Qubit> p2l_;
    std::vector<uint32_t> indeg_, front_, blocked_;
    std::vector<double> decay_;
    std::vector<uint32_t> frontier_, ext_ids_;
    std::vector<Edge> front_ends_, ext_ends_, candidates_;
    std::vector<uint8_t> hosts_front_;

    /**
     * Two-qubit gates reachable from the front (lookahead window),
     * into ext_ids_. A breadth-first walk that re-pushes successors
     * reachable along several paths, so a gate can enter the window
     * more than once.
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
            const uint32_t id = frontier_[cursor];
            for (uint32_t k = view.succ_begin[id];
                 k < view.succ_begin[id + 1]; ++k) {
                const uint32_t succ = view.succ[k];
                if (view.two_qubit[succ]) {
                    ext_ids_.push_back(succ);
                    if (ext_ids_.size() >= limit)
                        break;
                }
                frontier_.push_back(succ);
            }
        }
    }

    /**
     * The SWAP minimizing max(decay) * (mean front distance +
     * extended_weight * mean lookahead distance), first in (pa, pb)
     * order on ties. Distance sums are exact integers, so the double
     * arithmetic on them does not depend on how they are summed.
     */
    std::pair<PhysQubit, PhysQubit>
    bestSwap(const RoutingView &view, const std::vector<PhysQubit> &l2p)
    {
        // Physical endpoints of the front and lookahead gates.
        auto endpoints = [&](const std::vector<uint32_t> &ids,
                             std::vector<Edge> &ends) {
            ends.clear();
            for (uint32_t id : ids) {
                const auto &[a, b] = view.operands[id];
                ends.emplace_back(l2p[a], l2p[b]);
            }
        };
        endpoints(front_, front_ends_);
        endpoints(ext_ids_, ext_ends_);

        // Candidate swaps: edges touching any physical qubit that
        // hosts an operand of a blocked front gate, in the chip's
        // sorted edge order.
        for (auto [a, b] : front_ends_)
            hosts_front_[a] = hosts_front_[b] = 1;
        candidates_.clear();
        for (Edge e : edges_)
            if (hosts_front_[e.first] || hosts_front_[e.second])
                candidates_.push_back(e);
        for (auto [a, b] : front_ends_)
            hosts_front_[a] = hosts_front_[b] = 0;
        qpad_assert(!candidates_.empty(), "no candidate swaps");

        const double front_terms = double(front_ends_.size());
        const double ext_terms = double(ext_ends_.size());
        double best_score = std::numeric_limits<double>::infinity();
        Edge best = candidates_.front();
        for (auto [pa, pb] : candidates_) {
            auto moved = [pa, pb](PhysQubit p) {
                return p == pa ? pb : p == pb ? pa : p;
            };
            auto sum = [&](const std::vector<Edge> &ends) {
                std::size_t total = 0;
                for (auto [a, b] : ends)
                    total += dist_(moved(a), moved(b));
                return double(total);
            };
            const double front_cost = sum(front_ends_) / front_terms;
            const double ext_cost =
                ext_ends_.empty()
                    ? 0.0
                    : options_.extended_weight * sum(ext_ends_) /
                          ext_terms;
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

/** Unitary-only reversed copy of a circuit (for reverse traversal). */
Circuit
reversedUnitary(const Circuit &circ)
{
    Circuit out(circ.numQubits(), circ.numClbits(),
                circ.name() + "_rev");
    for (auto it = circ.gates().rbegin(); it != circ.gates().rend();
         ++it) {
        if (it->kind == GateKind::Measure ||
            it->kind == GateKind::Reset ||
            it->kind == GateKind::Barrier)
            continue;
        out.add(*it);
    }
    return out;
}

/**
 * Everything but the measurements, widened to the chip (a barrier
 * synchronizes every qubit of the widened circuit). Measurements are
 * re-appended after routing.
 */
Circuit
widenedUnitaryPart(const Circuit &circ, std::size_t chip_qubits,
                   std::vector<std::pair<Qubit, circuit::Clbit>> &measures)
{
    Circuit out(chip_qubits, circ.numClbits(), circ.name());
    for (const Gate &g : circ.gates()) {
        if (g.kind == GateKind::Measure) {
            measures.emplace_back(g.qubits[0], g.clbit);
            continue;
        }
        out.add(g);
    }
    return out;
}

} // namespace

MappingResult
mapCircuit(const Circuit &circuit, const arch::Architecture &arch,
           const MappingOptions &options, const exec::Context &ctx)
{
    QPAD_SPAN("mapping.map");
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

    std::vector<std::pair<Qubit, circuit::Clbit>> measures;
    const Circuit unitary =
        widenedUnitaryPart(circuit, arch.numQubits(), measures);
    const RoutingView forward(unitary);
    Router router(arch, options, ctx);

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
        const RoutingView backward(reversedUnitary(unitary));
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
    Router::PassResult pass;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        Router::PassResult attempt =
            router.route(forward, candidates[i], true);
        if (i == 0 || attempt.swaps < pass.swaps) {
            pass = std::move(attempt);
            best = i;
        }
    }

    MappingResult result;
    result.initial_mapping.assign(
        candidates[best].begin(),
        candidates[best].begin() + circuit.numQubits());
    result.swaps = pass.swaps;
    result.final_mapping.assign(
        pass.final_l2p.begin(),
        pass.final_l2p.begin() + circuit.numQubits());

    // Materialize the physical circuit by replaying the pass: each
    // gate takes the mapping current at its execution, and a SWAP
    // lowers to three CX.
    Circuit mapped(arch.numQubits(), circuit.numClbits(),
                   circuit.name() + "@" + arch.name());
    std::vector<PhysQubit> l2p = std::move(candidates[best]);
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
            Gate phys = unitary.gate(op.gate);
            for (auto &q : phys.qubits)
                q = l2p[q];
            mapped.add(std::move(phys));
        }
    }
    qpad_assert(l2p == pass.final_l2p, "replayed mapping diverged");
    for (auto [lq, cb] : measures)
        mapped.measure(pass.final_l2p[lq], cb);

    result.total_gates = mapped.unitaryGateCount();
    result.two_qubit_gates = mapped.twoQubitGateCount();
    result.mapped = std::move(mapped);
    static obs::Counter &swaps = obs::counter("mapping.swaps");
    swaps.add(result.swaps);
    return result;
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
