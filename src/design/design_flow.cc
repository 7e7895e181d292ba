#include "design/design_flow.hh"

#include "arch/ibm.hh"
#include "cache/yield_cache.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace qpad::design
{

using arch::Architecture;

DesignOutcome
designArchitecture(const profile::CouplingProfile &profile,
                   const DesignFlowOptions &options,
                   const std::string &name, exec::TimePoint deadline)
{
    QPAD_SPAN("design.flow");
    static obs::Counter &flows = obs::counter("design.flows");
    flows.add();

    // A request past its deadline should not even start the layout
    // stage.
    exec::throwIfPassed(deadline);

    DesignOutcome outcome;

    // Subroutine 1: qubit layout (Algorithm 1).
    {
        QPAD_SPAN("design.layout");
        static obs::Counter &layouts = obs::counter("design.layouts");
        layouts.add();
        outcome.layout = designLayout(profile);
    }
    outcome.architecture = Architecture(outcome.layout.layout, name);

    // Subroutine 2: bus selection (Algorithm 2 or a baseline).
    {
    QPAD_SPAN("design.bus_select");
    static obs::Counter &bus_selects =
        obs::counter("design.bus_selections");
    bus_selects.add();
    switch (options.bus_scheme) {
      case BusScheme::Weighted:
        outcome.buses = selectBuses(outcome.architecture, profile,
                                    options.max_buses);
        applyBusSelection(outcome.architecture, outcome.buses);
        break;
      case BusScheme::Random: {
        Rng rng(options.bus_seed);
        outcome.buses = selectBusesRandom(outcome.architecture,
                                          options.max_buses, rng);
        applyBusSelection(outcome.architecture, outcome.buses);
        break;
      }
      case BusScheme::None:
        break;
      case BusScheme::Max: {
        Architecture &arch = outcome.architecture;
        for (const arch::SquareInfo &sq : arch.eligibleSquares()) {
            if (arch.canAddFourQubitBus(sq.origin)) {
                arch.addFourQubitBus(sq.origin);
                outcome.buses.selected.push_back(sq.origin);
                outcome.buses.weights.push_back(0);
            }
        }
        break;
      }
    }
    }

    // Subroutine 3: frequency allocation (Algorithm 3 or 5-freq).
    {
    QPAD_SPAN("design.freq_alloc");
    static obs::Counter &freq_allocs =
        obs::counter("design.freq_allocations");
    freq_allocs.add();
    switch (options.freq_scheme) {
      case FreqScheme::Optimized:
        // Algorithm 3's candidate sweep dominates the flow's cost and
        // is a pure function of (topology, options): route it through
        // the result cache so repeated designs within a process
        // skip the Monte Carlo entirely.
        outcome.freq =
            cache::cachedAllocateFrequencies(outcome.architecture,
                                             options.freq_options,
                                             deadline);
        outcome.architecture.setAllFrequencies(outcome.freq.freqs);
        break;
      case FreqScheme::FiveFrequency:
        arch::applyFiveFrequencyScheme(outcome.architecture);
        break;
    }
    }

    return outcome;
}

} // namespace qpad::design
