/**
 * @file
 * Execution-triggered demotion: every executor failure path, forced via
 * the exec.* failpoint sites, must push the planner one rung down the
 * ladder and leave a demoted plan that still round-trips bit-exactly
 * under the oracle, at a modeled cost no lower than the plan it
 * replaced. Also covers the CTA-budget gate (an oversized tensor demotes
 * to a windowed scalar plan instead of raising UserError), the padding
 * search regression pins, and the engine's indifference to executor
 * faults: the compile path validates plans statically and executes
 * nothing, so the demotion here is driven by check::checkCaseWithDemotion
 * as an audit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/generators.h"
#include "check/oracle.h"
#include "codegen/conversion.h"
#include "codegen/gather.h"
#include "engine/layout_engine.h"
#include "ir/function.h"
#include "layout/dims.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "triton/encodings.h"

namespace ll {
namespace {

using check::ConversionCase;
using check::DemotionReport;
using codegen::ConversionKind;

struct CorpusEntry
{
    std::string file; ///< basename, for failure messages
    ConversionCase c;
};

const std::vector<CorpusEntry> &
corpus()
{
    static const std::vector<CorpusEntry> entries = [] {
        std::vector<std::string> paths;
        for (const auto &e :
             std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
            if (e.path().extension() == ".txt")
                paths.push_back(e.path().string());
        }
        std::sort(paths.begin(), paths.end());
        std::vector<CorpusEntry> out;
        for (const auto &p : paths) {
            out.push_back({std::filesystem::path(p).filename().string(),
                           check::readCaseFile(p)});
        }
        return out;
    }();
    return entries;
}

LinearLayout
blocked(const triton::Shape &spt, const triton::Shape &tpw,
        const triton::Shape &wpc, const std::vector<int32_t> &order,
        const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = spt;
    enc.threadsPerWarp = tpw;
    enc.warpsPerCta = wpc;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

std::vector<std::string>
forceShared()
{
    return {"plan.noop", "plan.register-permute", "plan.warp-shuffle"};
}

codegen::ConversionPlan
planWith(const ConversionCase &c, const std::vector<std::string> &sites)
{
    failpoint::ScopedSet guard(sites);
    return codegen::planConversion(c.src, c.dst, c.elemBytes, c.spec());
}

/** A conversion that plans to WarpShuffle on gh200 (verified by the
 *  codegen tests): same warp tiling, different thread/register split. */
ConversionCase
shuffleCase()
{
    ConversionCase c;
    c.src = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});
    c.dst = blocked({4, 1}, {2, 16}, {2, 2}, {1, 0}, {16, 64});
    c.elemBytes = 2;
    c.summary = "deterministic warp-shuffle conversion";
    return c;
}

int
rung(ConversionKind k)
{
    return static_cast<int>(k);
}

TEST(ExecFallback, SitePoolIsCompleteAndDisjointFromPlannerSites)
{
    auto exec = codegen::executionFailpointSites();
    EXPECT_EQ(exec.size(), 10u);
    auto planner = codegen::plannerFailpointSites();
    for (const auto &s : exec) {
        EXPECT_EQ(s.rfind("exec.", 0), 0u) << s;
        EXPECT_EQ(std::count(exec.begin(), exec.end(), s), 1) << s;
        EXPECT_EQ(std::count(planner.begin(), planner.end(), s), 0) << s;
    }
}

// Cumulative knockout sets: each demotion step disables strictly more
// rungs, so the engine's demotion loop must terminate; the terminal
// scalar rung has nowhere left to go.
TEST(ExecFallback, DemotionSitesGrowStrictlyDownTheLadder)
{
    const ConversionKind ladder[] = {
        ConversionKind::NoOp,          ConversionKind::RegisterPermute,
        ConversionKind::WarpShuffle,   ConversionKind::SharedMemory,
        ConversionKind::SharedPadded,
    };
    size_t prev = 0;
    for (ConversionKind k : ladder) {
        auto sites = codegen::demotionSitesFor(k);
        EXPECT_GT(sites.size(), prev) << toString(k);
        prev = sites.size();
    }
    EXPECT_TRUE(codegen::demotionSitesFor(ConversionKind::SharedScalar)
                    .empty());
}

// Each exec.shared.* site, forced for exactly one execution over every
// corpus case (driven onto the shared rung), must trigger exactly one
// demotion whose surviving plan is strictly lower on the ladder,
// oracle-clean, and no cheaper than the plan it replaced. A case whose
// forced plan already sits on the terminal scalar rung must fail
// terminally instead — the designed engine-failure outcome.
TEST(ExecFallback, SharedExecSitesDemoteBitExactOverCorpus)
{
    const std::vector<std::string> sites = {
        "exec.shared.file-size", "exec.shared.alloc",
        "exec.shared.window", "exec.shared.bank-budget"};
    for (const auto &site : sites) {
        int fired = 0;
        for (const auto &e : corpus()) {
            ConversionCase c = e.c;
            c.failpoints = forceShared();
            auto original = planWith(c, c.failpoints);

            failpoint::activate(site, 1);
            DemotionReport dr = check::checkCaseWithDemotion(c);
            failpoint::deactivate(site);

            EXPECT_EQ(dr.initialKind, original.kind) << e.file;
            if (dr.initialKind == ConversionKind::SharedScalar) {
                EXPECT_FALSE(dr.survived) << e.file << " with " << site;
                continue;
            }
            ++fired;
            EXPECT_TRUE(dr.survived) << e.file << " with " << site;
            EXPECT_EQ(dr.demotions, 1) << e.file << " with " << site;
            EXPECT_GT(rung(dr.finalKind), rung(dr.initialKind))
                << e.file << ": " << toString(dr.initialKind) << " -> "
                << toString(dr.finalKind);
            EXPECT_TRUE(dr.report.ok())
                << e.file << " with " << site << ": "
                << dr.report.toString();

            // Demotion may only raise the modeled cost (the original
            // rung was preferred for a reason).
            auto demoted =
                planWith(c, codegen::demotionSitesFor(original.kind));
            const auto spec = c.spec();
            EXPECT_LE(original.estimateCycles(c.src, c.elemBytes, spec),
                      demoted.estimateCycles(c.src, c.elemBytes, spec))
                << e.file << ": " << toString(original.kind) << " vs "
                << toString(demoted.kind);
        }
        EXPECT_GE(fired, 1) << site << " never reached a demotable plan";
    }
}

// The exec.shuffle.* sites, forced on a conversion that plans to the
// shuffle rung, demote it onto a shared rung that still routes every
// element correctly.
TEST(ExecFallback, ShuffleExecSitesDemoteToOracleCleanSharedPlan)
{
    const std::vector<std::string> sites = {
        "exec.shuffle.shape", "exec.shuffle.lane-range",
        "exec.shuffle.reg-range"};
    ConversionCase c = shuffleCase();
    {
        auto plan = planWith(c, {});
        ASSERT_EQ(plan.kind, ConversionKind::WarpShuffle)
            << "fixture no longer plans to the shuffle rung";
    }
    for (const auto &site : sites) {
        failpoint::activate(site, 1);
        DemotionReport dr = check::checkCaseWithDemotion(c);
        failpoint::deactivate(site);

        EXPECT_EQ(dr.initialKind, ConversionKind::WarpShuffle) << site;
        EXPECT_TRUE(dr.survived) << site;
        EXPECT_EQ(dr.demotions, 1) << site;
        EXPECT_GT(rung(dr.finalKind), rung(ConversionKind::WarpShuffle))
            << site << ": demoted to " << toString(dr.finalKind);
        EXPECT_TRUE(dr.report.ok()) << site << ": "
                                    << dr.report.toString();
    }

    // Demotion invariants must also hold wherever a shuffle plan occurs
    // naturally in the corpus.
    for (const auto &site : sites) {
        for (const auto &e : corpus()) {
            if (planWith(e.c, {}).kind != ConversionKind::WarpShuffle)
                continue;
            failpoint::activate(site, 1);
            DemotionReport dr = check::checkCaseWithDemotion(e.c);
            failpoint::deactivate(site);
            EXPECT_TRUE(dr.survived) << e.file << " with " << site;
            EXPECT_EQ(dr.demotions, 1) << e.file << " with " << site;
            EXPECT_TRUE(dr.report.ok())
                << e.file << " with " << site << ": "
                << dr.report.toString();
        }
    }
}

// Demotion must resume the ladder strictly below the failed rung
// instead of re-walking it from the top: a forced mid-ladder execution
// failure leaves the rungs at or above the failure evaluated exactly
// once (by the initial plan), while the demoted re-plan starts at the
// rung below. Counted via the plan.rung.*.evaluated metrics.
TEST(ExecFallback, DemotedReplanResumesBelowFailedRung)
{
    ConversionCase c = shuffleCase();
    {
        auto plan = planWith(c, {});
        ASSERT_EQ(plan.kind, ConversionKind::WarpShuffle)
            << "fixture no longer plans to the shuffle rung";
    }
    auto &reg = metrics::Registry::instance();
    auto at = [](const std::map<std::string, int64_t> &snap,
                 const std::string &name) {
        auto it = snap.find(name);
        return it == snap.end() ? int64_t(0) : it->second;
    };
    const auto before = reg.counterSnapshot();

    failpoint::activate("exec.shuffle.shape", 1);
    DemotionReport dr = check::checkCaseWithDemotion(c);
    failpoint::deactivate("exec.shuffle.shape");
    ASSERT_TRUE(dr.survived);
    ASSERT_EQ(dr.demotions, 1);
    EXPECT_GT(rung(dr.finalKind), rung(ConversionKind::WarpShuffle));

    const auto after = reg.counterSnapshot();
    auto delta = [&](const std::string &name) {
        return at(after, name) - at(before, name);
    };
    // The initial plan walks rungs 1-3 exactly once; the demoted
    // re-plan resumes at rung 4 and never revisits them.
    EXPECT_EQ(delta("plan.rung.noop.evaluated"), 1);
    EXPECT_EQ(delta("plan.rung.register-permute.evaluated"), 1);
    EXPECT_EQ(delta("plan.rung.warp-shuffle.evaluated"), 1);
    EXPECT_GE(delta("plan.rung.shared-memory.evaluated"), 1);
    EXPECT_EQ(delta("plan.replans"), 1);
}

// The gather executor is not part of the conversion ladder, so its
// error paths are proven reachable directly: each forced site must fail
// that one execution with a structured ExecDiagnostic naming the site,
// and the immediately following clean run must succeed.
TEST(ExecFallback, GatherExecSitesFailOnceThenRecover)
{
    auto spec = sim::GpuSpec::gh200();
    auto layout = blocked({1, 8}, {32, 1}, {1, 1}, {1, 0}, {32, 8});
    auto plan = codegen::planGather(layout, 1, spec);
    ASSERT_TRUE(plan.has_value());

    std::vector<std::vector<uint64_t>> regs(
        static_cast<size_t>(plan->warpSize));
    std::vector<std::vector<int32_t>> idx(
        static_cast<size_t>(plan->warpSize));
    for (int lane = 0; lane < plan->warpSize; ++lane) {
        for (int reg = 0; reg < plan->numRegs; ++reg) {
            regs[static_cast<size_t>(lane)].push_back(
                static_cast<uint64_t>(lane * plan->numRegs + reg));
            idx[static_cast<size_t>(lane)].push_back(reg);
        }
    }

    for (const std::string site : {"exec.gather.invert",
                                   "exec.gather.index-range",
                                   "exec.gather.cross-warp"}) {
        failpoint::activate(site, 1);
        auto forced = codegen::executeGather(*plan, layout, 0, regs, idx);
        failpoint::deactivate(site);
        ASSERT_FALSE(forced.ok()) << site << " did not fire";
        EXPECT_EQ(forced.diag().stage, site);

        auto clean = codegen::executeGather(*plan, layout, 0, regs, idx);
        ASSERT_TRUE(clean.ok())
            << site << ": " << clean.diag().toString();
        // Identity index tensor: the gather must reproduce the input.
        for (int lane = 0; lane < plan->warpSize; ++lane) {
            for (int reg = 0; reg < plan->numRegs; ++reg) {
                EXPECT_EQ((*clean)[static_cast<size_t>(lane)]
                                  [static_cast<size_t>(reg)],
                          regs[static_cast<size_t>(lane)]
                              [static_cast<size_t>(reg)])
                    << site << " lane " << lane << " reg " << reg;
            }
        }
    }
}

// ----------------------------------------------------------------------
// CTA budget (satellite: oversized tensors demote, not abort)
// ----------------------------------------------------------------------

// 256 x 256 x f32 = 256 KiB exceeds the GH200 CTA budget (228 KiB), so
// every flat shared candidate is gated by DiagCode::CtaBudgetExceeded
// and the planner must land on the windowed scalar rung — still a total
// function, still bit-exact under the oracle.
TEST(ExecFallback, OversizedTensorDemotesToWindowedScalar)
{
    auto spec = sim::GpuSpec::gh200();
    auto src = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {256, 256});
    auto dst = blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, {256, 256});
    const int elemBytes = 4;

    auto plan = codegen::tryPlanConversion(src, dst, elemBytes, spec);
    ASSERT_TRUE(plan.ok()) << plan.diag().toString();
    EXPECT_EQ(plan->kind, ConversionKind::SharedScalar);
    ASSERT_TRUE(plan->shared.has_value());
    EXPECT_TRUE(plan->shared->windowed());
    EXPECT_LE(plan->shared->allocElems(src.getTotalOutDimSize()) *
                  elemBytes,
              static_cast<int64_t>(spec.sharedMemPerCta));
    EXPECT_GE(plan->shared->passesFor(src.getTotalOutDimSize()), 2);

    bool sawBudgetDiag = false;
    for (const auto &n : plan->diagnostics.notes)
        sawBudgetDiag |= n.code == DiagCode::CtaBudgetExceeded;
    EXPECT_TRUE(sawBudgetDiag) << plan->diagnostics.toString();

    // The multi-pass execution must still route every element and keep
    // its wavefront totals honest (Lemma 9.4's per-access audit is
    // unavailable for windowed plans; the totals audit covers them).
    auto report = check::checkPlan(*plan, src, dst, elemBytes, spec);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_FALSE(report.audited);
    EXPECT_TRUE(report.totalsAudited);
    EXPECT_FALSE(report.totalsDiverge());
}

// ----------------------------------------------------------------------
// Padding search regression (satellite: pinned (interval, pad) pairs)
// ----------------------------------------------------------------------

// The padded rung searches a small (padInterval, padElems) family and
// keeps the wavefront-cheapest pair that fits. Pin the chosen pair for
// two corpus cases — one scalar-vectorization case and one where the
// pad must stay a multiple of an 8-wide vectorization — so a cost-model
// or search-order change shows up as an explicit diff here.
TEST(ExecFallback, PaddingSearchPinsChosenPairOnCorpusCases)
{
    auto forcePadded = forceShared();
    forcePadded.push_back("plan.optimal-swizzle");
    forcePadded.push_back("plan.legacy-swizzle");

    struct Pin
    {
        const char *file;
        int64_t interval, pad;
        int vec;
    };
    const Pin pins[] = {
        {"seed3_case16.txt", 64, 4, 1},
        {"seed3_case29.txt", 32, 8, 8},
    };
    for (const auto &pin : pins) {
        const CorpusEntry *entry = nullptr;
        for (const auto &e : corpus())
            if (e.file == pin.file)
                entry = &e;
        ASSERT_NE(entry, nullptr) << pin.file << " missing from corpus";

        auto plan = planWith(entry->c, forcePadded);
        ASSERT_EQ(plan.kind, ConversionKind::SharedPadded) << pin.file;
        ASSERT_TRUE(plan.shared.has_value()) << pin.file;
        EXPECT_TRUE(plan.shared->padded()) << pin.file;
        EXPECT_EQ(plan.shared->padInterval, pin.interval) << pin.file;
        EXPECT_EQ(plan.shared->padElems, pin.pad) << pin.file;
        EXPECT_EQ(plan.shared->vecElems(), pin.vec) << pin.file;
        // Padding stays vec-aligned so access windows never straddle a
        // pad gap.
        EXPECT_EQ(plan.shared->padInterval % plan.shared->vecElems(), 0)
            << pin.file;
        EXPECT_EQ(plan.shared->padElems % plan.shared->vecElems(), 0)
            << pin.file;
    }
}

// ----------------------------------------------------------------------
// The engine executes nothing
// ----------------------------------------------------------------------

ir::Function
gemmFunction()
{
    ir::Function f("gemm");
    int a = f.load({ir::DType::F16, {64, 64}});
    int b = f.load({ir::DType::F16, {64, 64}});
    int c = f.dot(a, b, ir::DType::F32);
    f.store(c);
    return f;
}

// Nothing on the compile path executes a plan: with every executor
// failpoint held active, the engine lowers the gemm fixture exactly as a
// clean run does — same plans on the ops (describePlan), same notes —
// and no executor runs at all.
TEST(ExecFallback, EnginePlansIdenticallyWithEveryExecSiteActive)
{
    const auto spec = sim::GpuSpec::gh200();
    auto lower = [&spec](engine::EngineStats &stats) {
        auto f = gemmFunction();
        engine::LayoutEngine eng({spec, 4});
        stats = eng.run(f);
        std::vector<std::string> out;
        for (int i = 0; i < f.numOps(); ++i) {
            const ir::Op &o = f.op(i);
            if (o.erased || o.kind != ir::OpKind::ConvertLayout)
                continue;
            out.push_back(o.plan ? codegen::describePlan(*o.plan)
                                 : "unplanned");
        }
        return out;
    };

    engine::EngineStats clean;
    const auto want = lower(clean);
    ASSERT_GE(clean.convertsPlanned, 1);
    EXPECT_EQ(clean.planFailures, 0);

    engine::EngineStats forced;
    std::vector<std::string> got;
    {
        failpoint::ScopedSet guard(codegen::executionFailpointSites());
        EXPECT_NO_THROW(got = lower(forced));
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(forced.convertsPlanned, clean.convertsPlanned);
    EXPECT_EQ(forced.planFailures, 0);
    EXPECT_EQ(forced.planFallbacks, clean.planFallbacks);
    EXPECT_EQ(forced.planDiagnostics, clean.planDiagnostics);
    EXPECT_EQ(forced.execFailures, 0);
    for (const auto &[name, delta] : forced.metrics)
        EXPECT_NE(name.rfind("exec.", 0), 0u)
            << name << " moved by " << delta << " during engine.run";
}

} // namespace
} // namespace ll
