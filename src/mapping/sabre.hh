/**
 * @file
 * SABRE-style qubit mapping (Li, Ding, Xie, ASPLOS 2019 — reference
 * [18] of the reproduced paper, the mapper its evaluation uses).
 *
 * The mapper consists of
 *  - a swap-based heuristic router: gates whose operands are mapped
 *    to connected physical qubits execute immediately; otherwise the
 *    SWAP minimizing a distance + lookahead + decay cost is inserted
 *    (each SWAP lowers to three CX in the gate-count metric), and
 *  - an initial-mapping search: forward and backward routing passes
 *    over the circuit refine the initial layout (the "reverse
 *    traversal" trick of the SABRE paper).
 *
 * Unlike SABRE's extended *set*, the lookahead window here is the
 * first extended_set_size two-qubit gates of a breadth-first walk
 * from the front that keeps its multiplicity: a gate reachable along
 * several dependency paths enters the window once per path. On the
 * Figure 10 chips 53.6 % of window entries are such repeats, and
 * 99.9 % of SWAP choices see at least one, so making the window a
 * set would change the routing of almost every circuit (and every
 * golden that pins it).
 *
 * Two entry points share one search: the checks, the views, the
 * eight routing passes of the default options and the choice of the
 * first candidate with the fewest SWAPs. mapCircuit records the
 * candidates' passes and replays the winner into a mapped Circuit.
 * countMapping returns only the SWAP and gate counts, which is all
 * the Figure 10 sweep keeps, so none of its passes records a gate
 * and no circuit is built.
 *
 * Each call routes over a flat view built once per direction: pointers
 * to the caller's gates in routing order (no circuit is copied), their
 * circuit::DependencyDag with barriers spanning the chip, a two-qubit
 * flag and two operands per gate; and over a dense distance table.
 * Each SWAP choice scores the window as its distinct operand pairs,
 * each with the count of entries it stands for, takes the candidate
 * edges from per-qubit incident-edge bit rows, and scores a candidate
 * from exact integer distance sums, so regrouping the sums changes no
 * choice.
 */

#ifndef QPAD_MAPPING_SABRE_HH
#define QPAD_MAPPING_SABRE_HH

#include <cstdint>
#include <vector>

#include "arch/architecture.hh"
#include "circuit/circuit.hh"
#include "exec/cancel.hh"

namespace qpad::mapping
{

/** Heuristic knobs (defaults follow the SABRE paper). */
struct MappingOptions
{
    /** Weight of the lookahead (extended) set in the cost. */
    double extended_weight = 0.5;
    /** Max two-qubit gates collected into the extended set. */
    std::size_t extended_set_size = 20;
    /** Additive decay applied to recently swapped qubits. */
    double decay_delta = 0.001;
    /** Forward-backward refinement rounds for the initial mapping. */
    unsigned initial_mapping_rounds = 3;
    /** Use the SABRE reverse-traversal initial mapping search. */
    bool sabre_initial_mapping = true;
    /** Seed for the randomized starting permutation. */
    uint64_t seed = 7;
};

/** Outcome of mapping one circuit onto one architecture. */
struct MappingResult
{
    /** Physical-level circuit (CX respect the coupling graph). */
    circuit::Circuit mapped;
    /** logical -> physical assignment before the first gate. */
    std::vector<arch::PhysQubit> initial_mapping;
    /** logical -> physical assignment after the last gate. */
    std::vector<arch::PhysQubit> final_mapping;
    /** SWAPs inserted by routing. */
    std::size_t swaps = 0;
    /** Post-mapping gate count: unitary gates incl. 3 CX per SWAP. */
    std::size_t total_gates = 0;
    /** Post-mapping two-qubit gate count. */
    std::size_t two_qubit_gates = 0;
};

/** mapCircuit's counts, without the mapped circuit. */
struct MappingCounts
{
    /** SWAPs inserted by routing. */
    std::size_t swaps = 0;
    /** Post-mapping gate count: unitary gates incl. 3 CX per SWAP. */
    std::size_t total_gates = 0;
};

/**
 * Map a {1q, CX} circuit onto an architecture. A passed `deadline`
 * raises exec::CancelledError before the next routing pass (a call
 * runs up to 2 + 2 x initial_mapping_rounds passes); a completed
 * call is bit-identical to one without a deadline. Invalid options
 * (a negative or non-finite extended_weight or decay_delta) are a
 * caller error: qpad_fatal.
 *
 * @pre circuit.numQubits() <= arch.numQubits() and the architecture
 *      coupling graph is connected.
 */
MappingResult mapCircuit(const circuit::Circuit &circuit,
                         const arch::Architecture &arch,
                         const MappingOptions &options = {},
                         exec::TimePoint deadline = exec::kNoDeadline);

/**
 * mapCircuit's swaps and total_gates, from the same checks, passes
 * and choice of initial mapping, without recording or replaying the
 * winning pass: total_gates is circuit.unitaryGateCount() + 3 x
 * swaps. The deadline, invalid options and preconditions are as for
 * mapCircuit, and both add to the mapping.calls and mapping.swaps
 * counters.
 */
MappingCounts countMapping(const circuit::Circuit &circuit,
                           const arch::Architecture &arch,
                           const MappingOptions &options = {},
                           exec::TimePoint deadline = exec::kNoDeadline);

/**
 * Check that every CX of a mapped circuit respects the coupling
 * graph (verification helper for tests).
 */
bool respectsCoupling(const circuit::Circuit &mapped,
                      const arch::Architecture &arch);

} // namespace qpad::mapping

#endif // QPAD_MAPPING_SABRE_HH
