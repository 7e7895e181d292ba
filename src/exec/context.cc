#include "exec/context.hh"

namespace qpad::exec
{

const Context &
Context::none()
{
    // Leaked Meyers singleton (same pattern as the obs registry):
    // default arguments bind references to it from any thread at any
    // point of process teardown, so it must never be destroyed.
    static const Context &ctx = *new Context;
    return ctx;
}

} // namespace qpad::exec
