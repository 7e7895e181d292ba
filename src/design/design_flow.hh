/**
 * @file
 * End-to-end application-specific architecture design flow
 * (paper Figure 1): profiling -> layout design -> bus selection ->
 * frequency allocation.
 *
 * The bus and frequency subroutines are pluggable so the paper's
 * five experiment configurations (ibm, eff-full, eff-5-freq,
 * eff-rd-bus, eff-layout-only) can all be expressed through one
 * entry point.
 */

#ifndef QPAD_DESIGN_DESIGN_FLOW_HH
#define QPAD_DESIGN_DESIGN_FLOW_HH

#include <cstdint>
#include <string>

#include "arch/architecture.hh"
#include "design/bus_selection.hh"
#include "design/freq_alloc.hh"
#include "design/layout_design.hh"
#include "exec/cancel.hh"
#include "profile/coupling.hh"

namespace qpad::design
{

/** How 4-qubit buses are chosen. */
enum class BusScheme
{
    Weighted, ///< Algorithm 2 (filtered cross-coupling weight)
    Random,   ///< eff-rd-bus: random, prohibited condition honoured
    None,     ///< 2-qubit buses only
    Max,      ///< as many 4-qubit buses as physically possible
};

/** How frequencies are assigned. */
enum class FreqScheme
{
    Optimized,     ///< Algorithm 3 (centre-out local-yield search)
    FiveFrequency, ///< IBM's regular 5-frequency tiling
};

/** Flow configuration. */
struct DesignFlowOptions
{
    BusScheme bus_scheme = BusScheme::Weighted;
    /** Maximum number of 4-qubit buses (the paper's K). */
    std::size_t max_buses = SIZE_MAX;
    FreqScheme freq_scheme = FreqScheme::Optimized;
    FreqAllocOptions freq_options = {};
    /** Seed for BusScheme::Random. */
    uint64_t bus_seed = 99;
};

/** Everything the flow produced, for inspection and reporting. */
struct DesignOutcome
{
    arch::Architecture architecture;
    LayoutResult layout;
    BusSelectionResult buses;
    FreqAllocResult freq; ///< empty when FiveFrequency was used
};

/**
 * Run the flow on a profiled program and return a complete
 * architecture (layout + buses + frequencies). A passed `deadline`
 * raises exec::CancelledError before the layout stage or from the
 * frequency-allocation stage (the flow's dominant cost); a completed
 * flow is bit-identical to one run without a deadline.
 */
DesignOutcome
designArchitecture(const profile::CouplingProfile &profile,
                   const DesignFlowOptions &options = {},
                   const std::string &name = "eff",
                   exec::TimePoint deadline = exec::kNoDeadline);

} // namespace qpad::design

#endif // QPAD_DESIGN_DESIGN_FLOW_HH
