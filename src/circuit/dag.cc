#include "circuit/dag.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.hh"

namespace qpad::circuit
{

namespace
{

std::vector<const Gate *>
gatePointers(const Circuit &circuit)
{
    std::vector<const Gate *> out;
    out.reserve(circuit.size());
    for (const Gate &g : circuit.gates())
        out.push_back(&g);
    return out;
}

} // namespace

DependencyDag::DependencyDag(const Circuit &circuit)
    : DependencyDag(gatePointers(circuit), circuit.numQubits())
{
}

DependencyDag::DependencyDag(std::span<const Gate *const> gates,
                             std::size_t num_qubits)
{
    constexpr uint32_t none = std::numeric_limits<uint32_t>::max();
    qpad_assert(gates.size() < none, "too many gates for a DAG: ",
                gates.size());
    const uint32_t n = uint32_t(gates.size());

    // One pass of (from, to) links, with every gate's out-degree
    // counted at begin_[from + 1]. last[q] = latest gate on qubit q.
    std::vector<uint32_t> last(num_qubits, none);
    std::vector<std::pair<uint32_t, uint32_t>> links;
    begin_.assign(n + 1, 0);
    auto follow = [&](uint32_t &l, uint32_t id) {
        if (l != none) {
            links.emplace_back(l, id);
            ++begin_[l + 1];
        }
        l = id;
    };
    for (uint32_t id = 0; id < n; ++id) {
        const Gate &g = *gates[id];
        if (g.kind == GateKind::Barrier) {
            for (uint32_t &l : last)
                follow(l, id);
            continue;
        }
        for (Qubit q : g.qubits) {
            qpad_assert(q < num_qubits, "gate ", g.str(),
                        " outside DAG width ", num_qubits);
            follow(last[q], id);
        }
    }

    // Stable counting sort by `from`: links were made in ascending
    // `to` order, so every list comes out ascending with a repeated
    // link (a gate sharing two qubits with its successor) next to its
    // twin.
    for (uint32_t id = 0; id < n; ++id)
        begin_[id + 1] += begin_[id];
    succ_.resize(links.size());
    std::vector<uint32_t> fill(begin_.begin(), begin_.end() - 1);
    for (auto [from, to] : links)
        succ_[fill[from]++] = to;

    // Drop the repeats in place and count indegrees over what is kept.
    indeg_.assign(n, 0);
    uint32_t kept = 0;
    for (uint32_t id = 0; id < n; ++id) {
        const uint32_t first = begin_[id], end = begin_[id + 1];
        begin_[id] = kept;
        uint32_t prev = none;
        for (uint32_t k = first; k < end; ++k) {
            if (succ_[k] == prev)
                continue;
            prev = succ_[kept++] = succ_[k];
            ++indeg_[prev];
        }
    }
    begin_[n] = kept;
    succ_.resize(kept);
}

std::vector<uint32_t>
DependencyDag::roots() const
{
    std::vector<uint32_t> out;
    for (uint32_t id = 0; id < indeg_.size(); ++id)
        if (indeg_[id] == 0)
            out.push_back(id);
    return out;
}

std::size_t
DependencyDag::asapDepth() const
{
    std::vector<uint32_t> indeg = indeg_;
    std::vector<std::size_t> level(numGates(), 0);
    std::queue<uint32_t> ready;
    for (uint32_t id : roots())
        ready.push(id);

    std::size_t depth = 0;
    while (!ready.empty()) {
        const uint32_t id = ready.front();
        ready.pop();
        depth = std::max(depth, level[id] + 1);
        for (uint32_t succ : successors(id)) {
            level[succ] = std::max(level[succ], level[id] + 1);
            if (--indeg[succ] == 0)
                ready.push(succ);
        }
    }
    return depth;
}

} // namespace qpad::circuit
