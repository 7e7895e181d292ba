/**
 * @file
 * Gate dependency DAG, in CSR form, that the mapper routes over.
 *
 * Two gates depend on each other iff they share a qubit; the DAG
 * keeps, for every gate, the immediate successors over each shared
 * qubit, ascending and without repeats. Barriers synchronize every
 * qubit of the width the DAG is built over, which may exceed the
 * qubits the gates touch (the mapper builds over the chip's width).
 */

#ifndef QPAD_CIRCUIT_DAG_HH
#define QPAD_CIRCUIT_DAG_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hh"

namespace qpad::circuit
{

/**
 * Immutable dependency DAG over a gate sequence. Gate ids are
 * indices into that sequence (into Circuit::gates() for a circuit).
 */
class DependencyDag
{
  public:
    /** DAG over a circuit's gates and width. */
    explicit DependencyDag(const Circuit &circuit);

    /**
     * DAG over `gates` in order, with barriers spanning qubits
     * 0 .. num_qubits - 1; every operand must be below num_qubits.
     * The pointers are read only during construction.
     */
    DependencyDag(std::span<const Gate *const> gates,
                  std::size_t num_qubits);

    std::size_t numGates() const { return indeg_.size(); }

    /** Immediate successors of gate id, ascending and distinct. */
    std::span<const uint32_t> successors(std::size_t id) const
    {
        return {succ_.data() + begin_[id], succ_.data() + begin_[id + 1]};
    }

    /** Number of immediate predecessors of gate id. */
    std::size_t indegree(std::size_t id) const { return indeg_[id]; }

    /** Every gate's indegree, by gate id. */
    std::span<const uint32_t> indegrees() const { return indeg_; }

    /** Gate ids with no predecessors (the initial front layer). */
    std::vector<uint32_t> roots() const;

    /** Number of "layers" in an ASAP schedule of the DAG. */
    std::size_t asapDepth() const;

  private:
    /** Successors of gate g: succ_[begin_[g] .. begin_[g + 1]). */
    std::vector<uint32_t> begin_;
    std::vector<uint32_t> succ_;
    std::vector<uint32_t> indeg_;
};

} // namespace qpad::circuit

#endif // QPAD_CIRCUIT_DAG_HH
