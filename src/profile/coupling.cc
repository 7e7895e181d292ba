#include "profile/coupling.hh"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace qpad::profile
{

using circuit::Qubit;

std::vector<std::pair<Qubit, Qubit>>
CouplingProfile::edges() const
{
    std::vector<std::pair<Qubit, Qubit>> out;
    for (std::size_t i = 0; i < num_qubits; ++i)
        for (std::size_t j = i + 1; j < num_qubits; ++j)
            if (strength(i, j) > 0)
                out.emplace_back(static_cast<Qubit>(i),
                                 static_cast<Qubit>(j));
    return out;
}

bool
CouplingProfile::isChain() const
{
    // A union of simple paths: every vertex has <= 2 neighbours and
    // there are no cycles (checked with union-find).
    std::vector<std::size_t> parent(num_qubits);
    std::iota(parent.begin(), parent.end(), 0);
    std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) {
            while (parent[x] != x)
                x = parent[x] = parent[parent[x]];
            return x;
        };

    std::vector<unsigned> neighbor_count(num_qubits, 0);
    for (auto [i, j] : edges()) {
        if (++neighbor_count[i] > 2 || ++neighbor_count[j] > 2)
            return false;
        std::size_t ri = find(i), rj = find(j);
        if (ri == rj)
            return false; // cycle
        parent[ri] = rj;
    }
    return true;
}

std::string
CouplingProfile::strengthTable() const
{
    std::ostringstream out;
    unsigned width = 1;
    for (std::size_t i = 0; i < num_qubits; ++i)
        for (std::size_t j = 0; j < num_qubits; ++j)
            width = std::max(width, unsigned(
                std::to_string(strength(i, j)).size()));
    out << std::setw(width + 3) << " ";
    for (std::size_t j = 0; j < num_qubits; ++j)
        out << std::setw(width + 1) << j;
    out << "\n";
    for (std::size_t i = 0; i < num_qubits; ++i) {
        out << "q" << std::setw(width + 1) << std::left << i
            << std::right << " ";
        for (std::size_t j = 0; j < num_qubits; ++j)
            out << std::setw(width + 1) << strength(i, j);
        out << "\n";
    }
    return out.str();
}

CouplingProfile
profileCircuit(const circuit::Circuit &circuit)
{
    QPAD_SPAN("profile.circuit");
    static obs::Counter &circuits = obs::counter("profile.circuits");
    circuits.add();
    CouplingProfile prof;
    prof.num_qubits = circuit.numQubits();
    prof.strength = SymMatrix<uint32_t>(prof.num_qubits, 0);
    prof.degrees.assign(prof.num_qubits, 0);

    for (const auto &g : circuit.gates()) {
        if (!g.isTwoQubit())
            continue; // single-qubit gates, measure, etc. are ignored
        Qubit a = g.qubits[0], b = g.qubits[1];
        ++prof.strength.at(a, b);
        ++prof.degrees[a];
        ++prof.degrees[b];
        ++prof.total_two_qubit_gates;
    }

    prof.degree_list.resize(prof.num_qubits);
    std::iota(prof.degree_list.begin(), prof.degree_list.end(), 0);
    std::stable_sort(prof.degree_list.begin(), prof.degree_list.end(),
                     [&](Qubit a, Qubit b) {
                         return prof.degrees[a] > prof.degrees[b];
                     });
    return prof;
}

} // namespace qpad::profile
