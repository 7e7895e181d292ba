/**
 * @file
 * Architecture-design-oriented program profiling (paper Section 3).
 *
 * The profiler ignores single-qubit gates, initialization and
 * measurement (they do not interact with qubit connections) and
 * summarizes the two-qubit gates of a program into:
 *  - the coupling strength matrix: entry (i, j) counts the two-qubit
 *    gates applied to logical qubits i and j, and
 *  - the coupling degree list: qubits sorted by the total number of
 *    two-qubit gates they participate in, descending.
 */

#ifndef QPAD_PROFILE_COUPLING_HH
#define QPAD_PROFILE_COUPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "common/sym_matrix.hh"

namespace qpad::profile
{

/** Profiling result for one program. */
struct CouplingProfile
{
    std::size_t num_qubits = 0;

    /** Symmetric matrix of two-qubit gate counts per qubit pair. */
    SymMatrix<uint32_t> strength;

    /** Coupling degree per qubit (sum of incident edge weights). */
    std::vector<uint32_t> degrees;

    /** Qubits sorted by degree, descending (ties: smaller id first). */
    std::vector<circuit::Qubit> degree_list;

    /** Total number of two-qubit gates in the program. */
    std::size_t total_two_qubit_gates = 0;

    /** Logical coupling-graph edges (i < j with strength > 0). */
    std::vector<std::pair<circuit::Qubit, circuit::Qubit>> edges() const;

    /** True if the coupling graph is a disjoint union of paths. */
    bool isChain() const;

    /** Render the strength matrix as an aligned text table. */
    std::string strengthTable() const;
};

/** Profile a circuit (Figure 4's procedure). Each call is one
 * `profile.circuit` span and one `profile.circuits` count. */
CouplingProfile profileCircuit(const circuit::Circuit &circuit);

} // namespace qpad::profile

#endif // QPAD_PROFILE_COUPLING_HH
