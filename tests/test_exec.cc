/**
 * @file
 * Tests for qpad::exec — cancellation tokens, deadlines, and request
 * contexts — plus the contract that matters most: a context decides
 * only WHETHER a result exists, never its bytes, and a stopped
 * context unwinds promptly as exec::CancelledError from every
 * ctx-threaded entry point.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "arch/architecture.hh"
#include "arch/ibm.hh"
#include "circuit/circuit.hh"
#include "design/anneal.hh"
#include "design/freq_alloc.hh"
#include "exec/cancel.hh"
#include "exec/context.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace std::chrono_literals;
using arch::Architecture;
using arch::Layout;
using exec::CancelledError;
using exec::CancelToken;
using exec::Context;
using exec::StopReason;

// --------------------------------------------------------------------
// CancelToken
// --------------------------------------------------------------------

TEST(CancelToken, FreshTokenIsClean)
{
    CancelToken tok;
    EXPECT_FALSE(tok.cancelRequested());
    EXPECT_FALSE(tok.hasDeadline());
    EXPECT_EQ(tok.stopReason(), StopReason::kNone);
    // Polling a clean token (or none at all) is a no-op.
    EXPECT_NO_THROW(exec::throwIfStopped(&tok));
    EXPECT_NO_THROW(exec::throwIfStopped(nullptr));
}

TEST(CancelToken, CancelIsSticky)
{
    CancelToken tok;
    tok.cancel();
    EXPECT_TRUE(tok.cancelRequested());
    EXPECT_EQ(tok.stopReason(), StopReason::kCancelled);
    // Still cancelled after deadline churn: cancel is sticky.
    tok.setDeadline(exec::now() + 1h);
    tok.clearDeadline();
    EXPECT_EQ(tok.stopReason(), StopReason::kCancelled);
}

TEST(CancelToken, DeadlineExpiryReportsAndThrows)
{
    CancelToken tok;
    tok.setDeadline(exec::now() - 1ns);
    EXPECT_TRUE(tok.hasDeadline());
    EXPECT_EQ(tok.stopReason(), StopReason::kDeadlineExceeded);
    try {
        exec::throwIfStopped(&tok);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), StopReason::kDeadlineExceeded);
    }
}

TEST(CancelToken, FutureDeadlineDoesNotStop)
{
    CancelToken tok;
    tok.setDeadline(exec::now() + 1h);
    EXPECT_TRUE(tok.hasDeadline());
    EXPECT_EQ(tok.stopReason(), StopReason::kNone);
    tok.clearDeadline();
    EXPECT_FALSE(tok.hasDeadline());
}

TEST(CancelToken, CancelWinsOverDeadline)
{
    CancelToken tok;
    tok.setDeadline(exec::now() - 1ns);
    tok.cancel();
    EXPECT_EQ(tok.stopReason(), StopReason::kCancelled);
}

// --------------------------------------------------------------------
// Context
// --------------------------------------------------------------------

TEST(Context, NoneIsNeverStopped)
{
    const Context &none = Context::none();
    EXPECT_FALSE(none.cancelRequested());
    EXPECT_EQ(none.stopReason(), StopReason::kNone);
    EXPECT_NO_THROW(none.throwIfStopped());
}

TEST(Context, CopiesShareCancelState)
{
    Context ctx;
    Context copy = ctx;
    copy.cancel();
    EXPECT_TRUE(ctx.cancelRequested());
    EXPECT_THROW(ctx.throwIfStopped(), CancelledError);
}

TEST(Context, SetDeadlineAfterZeroBudgetExpires)
{
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    EXPECT_EQ(ctx.stopReason(), StopReason::kDeadlineExceeded);
}

TEST(Context, SetDeadlineAfterHugeBudgetNeverExpires)
{
    // now() + budget would overflow into the past; the deadline
    // saturates at the end of the clock's range instead.
    Context ctx;
    ctx.setDeadlineAfter(std::chrono::nanoseconds::max());
    EXPECT_EQ(ctx.stopReason(), StopReason::kNone);
}

TEST(Context, ApplyAttachesTokenOnlyWhenUnset)
{
    Context ctx;
    runtime::Options base;
    base.num_threads = 3;
    const runtime::Options applied = ctx.apply(base);
    EXPECT_EQ(applied.cancel, ctx.token());
    EXPECT_EQ(applied.num_threads, 3u); // other fields pass through

    // Innermost wins: an already-attached token is left alone.
    CancelToken inner;
    runtime::Options preset;
    preset.cancel = &inner;
    EXPECT_EQ(ctx.apply(preset).cancel, &inner);
}

// --------------------------------------------------------------------
// Cancellation through the compute entry points
// --------------------------------------------------------------------

profile::CouplingProfile
smallProfile()
{
    circuit::Circuit c(6);
    for (circuit::Qubit q = 0; q + 1 < 6; ++q)
        c.cx(q, q + 1);
    c.cx(0, 5);
    c.cx(2, 4);
    return profile::profileCircuit(c);
}

TEST(ExecCancel, ExpiredDeadlineStopsAnneal)
{
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = 200000; // would take a while if not stopped
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    try {
        design::annealLayout(prof, start, opts, ctx);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), StopReason::kDeadlineExceeded);
    }
}

TEST(ExecCancel, BenignContextLeavesAnnealBitIdentical)
{
    // The determinism contract: attaching a context that never stops
    // must not change a single byte of the result.
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = 4000;
    opts.restarts = 2;
    // Both calls anneal both chains, so the guarded run polls its
    // deadline rather than reading the plain run's chains.
    obs::Counter &chains = obs::counter("design.anneal_chains");
    const uint64_t before = chains.value();
    auto plain = design::annealLayout(prof, start, opts);
    EXPECT_EQ(chains.value() - before, 2u);
    Context ctx;
    ctx.setDeadline(exec::now() + 1h); // armed but never expires
    auto guarded = design::annealLayout(prof, start, opts, ctx);
    EXPECT_EQ(chains.value() - before, 4u);
    EXPECT_EQ(plain.final_cost, guarded.final_cost);
    EXPECT_EQ(plain.winning_chain, guarded.winning_chain);
    EXPECT_EQ(plain.layout.coord_of_logical,
              guarded.layout.coord_of_logical);
}

TEST(ExecCancel, CancelledContextStopsEstimateYield)
{
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions opts;
    opts.trials = 4000;
    Context ctx;
    ctx.cancel();
    EXPECT_THROW(yield::estimateYield(arch, opts, ctx),
                 CancelledError);
}

TEST(ExecCancel, ExpiredDeadlineStopsFreqAlloc)
{
    Architecture arch(Layout::grid(3, 3));
    design::FreqAllocOptions opts;
    opts.local_trials = 200;
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    EXPECT_THROW(design::allocateFrequencies(arch, opts, ctx),
                 CancelledError);
}

TEST(ExecCancel, StoppedRunsCountInMetrics)
{
    const uint64_t before = obs::counter("exec.cancelled").value();
    Context ctx;
    ctx.cancel();
    EXPECT_THROW(ctx.throwIfStopped(), CancelledError);
    EXPECT_GE(obs::counter("exec.cancelled").value(), before + 1);
}

} // namespace
