/**
 * @file
 * Unit tests for the differential oracle itself: it must bless correct
 * plans, flag injected bugs, and shrink failures to tiny reproducers.
 * The LLFuzzRegression suite pins down real bugs the fuzzer caught —
 * each test is a minimized case emitted by the shrinker, kept forever.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <sstream>

#include "check/case_io.h"
#include "check/generators.h"
#include "check/oracle.h"
#include "check/shrink.h"
#include "codegen/conversion.h"
#include "codegen/shuffle.h"
#include "engine/layout_engine.h"
#include "layout/dims.h"
#include "support/failpoint.h"

namespace ll {
namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

/** A 2D transpose-flavored conversion that must lower through shared
 *  memory (src row-contiguous, dst column-contiguous). */
check::ConversionCase
sharedMemoryCase()
{
    triton::BlockedEncoding a;
    a.sizePerThread = {1, 4};
    a.threadsPerWarp = {4, 8};
    a.warpsPerCta = {2, 2};
    a.order = {1, 0};
    triton::BlockedEncoding b = a;
    b.sizePerThread = {4, 1};
    b.order = {0, 1};
    const triton::Shape shape = {32, 32};
    check::ConversionCase c;
    c.src = a.toLinearLayout(shape);
    c.dst = b.toLinearLayout(shape);
    c.elemBytes = 2;
    c.specName = "gh200";
    c.summary = "oracle_test shared-memory case";
    return c;
}

TEST(Oracle, BlessesACorrectSharedMemoryPlan)
{
    auto c = sharedMemoryCase();
    auto report = check::checkConversionCase(c);
    EXPECT_EQ(report.kind, codegen::ConversionKind::SharedMemory);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_TRUE(report.audited);
    EXPECT_EQ(report.mismatches, 0);
}

TEST(Oracle, CatchesAnInjectedSwizzleAliasBug)
{
    // Corrupting tensorToOffset makes two tensor elements alias one
    // shared address; the second store wins and the loads read either
    // wrong elements or kPoison. A payload-circular oracle would miss
    // this — runSharedRoundTrip must not.
    auto c = sharedMemoryCase();
    auto report =
        check::checkConversionCase(c, check::injectSwizzleAliasBug);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(report.mismatches, 0) << report.toString();
}

TEST(Oracle, ShrinksAnInjectedBugToAFewElements)
{
    auto c = sharedMemoryCase();
    auto checker = [](const check::ConversionCase &cc) {
        return check::checkConversionCase(cc,
                                          check::injectSwizzleAliasBug);
    };
    ASSERT_FALSE(checker(c).ok());
    auto shrunk = check::shrinkCase(c, checker);
    EXPECT_LE(check::caseElements(shrunk.minimized), 32);
    // The minimized case must still fail, and the emitted regression
    // test must carry the construction.
    auto test = check::emitRegressionTest(shrunk.minimized, "Unit");
    EXPECT_NE(test.find("TEST(LLFuzzRegression, Unit)"), std::string::npos);
    EXPECT_NE(test.find("checkConversionCase"), std::string::npos);
}

TEST(Oracle, FlagsAMisclassifiedRegisterPermute)
{
    // Hand the oracle a plan whose kind is wrong on purpose: moving
    // lane-held data into registers can never be a register permute.
    LinearLayout::BasesT srcBases;
    srcBases.insert(kReg, {});
    srcBases.insert(kLane, {{1}});
    srcBases.insert(kWarp, {});
    LinearLayout src(std::move(srcBases), {{"dim0", 2}},
                     /*requireSurjective=*/true);
    LinearLayout::BasesT dstBases;
    dstBases.insert(kReg, {{1}});
    dstBases.insert(kLane, {});
    dstBases.insert(kWarp, {});
    LinearLayout dst(std::move(dstBases), {{"dim0", 2}},
                     /*requireSurjective=*/true);
    codegen::ConversionPlan plan;
    plan.kind = codegen::ConversionKind::RegisterPermute;
    auto report =
        check::checkPlan(plan, src, dst, 4, sim::GpuSpec::rtx4090());
    EXPECT_FALSE(report.ok());
    EXPECT_GT(report.localityViolations, 0) << report.toString();
}

// --------------------------------------------------------------------
// Input validation: invalid layout pairs are rejected with a
// structured InvalidInput diagnostic (tryPlanConversion) and a
// UserError (planConversion) — never an abort or a bogus plan.
// --------------------------------------------------------------------

/** A trivial 1-element-per-thread layout over one out dim. */
LinearLayout
tinyLayout(const std::string &outDim, int32_t size,
           const std::string &inDim = dims::kReg)
{
    LinearLayout l = LinearLayout::identity1D(size, inDim, outDim);
    for (const auto &d : {dims::kReg, dims::kLane, dims::kWarp}) {
        if (d != inDim)
            l = l * LinearLayout::identity1D(1, d, outDim);
    }
    return l;
}

TEST(PlannerValidation, RejectsMismatchedOutDimNames)
{
    auto src = tinyLayout("dim0", 2);
    auto dst = tinyLayout("dimX", 2);
    auto r = codegen::tryPlanConversion(src, dst, 4,
                                        sim::GpuSpec::gh200());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::InvalidInput);
    EXPECT_THROW(
        codegen::planConversion(src, dst, 4, sim::GpuSpec::gh200()),
        UserError);
}

TEST(PlannerValidation, RejectsMismatchedOutDimSizes)
{
    auto src = tinyLayout("dim0", 2);
    auto dst = tinyLayout("dim0", 4);
    auto r = codegen::tryPlanConversion(src, dst, 4,
                                        sim::GpuSpec::gh200());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::InvalidInput);
    EXPECT_THROW(
        codegen::planConversion(src, dst, 4, sim::GpuSpec::gh200()),
        UserError);
}

TEST(PlannerValidation, RejectsUnsupportedElementSize)
{
    auto src = tinyLayout("dim0", 2);
    auto r = codegen::tryPlanConversion(src, src, 3,
                                        sim::GpuSpec::gh200());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::InvalidInput);
    EXPECT_THROW(
        codegen::planConversion(src, src, 3, sim::GpuSpec::gh200()),
        UserError);
}

TEST(PlannerValidation, RejectsNonDistributedInputDims)
{
    // A shared-memory-style layout (offset -> tensor) is not a valid
    // conversion endpoint; the planner wants register/lane/warp.
    auto src = LinearLayout::identity1D(2, dims::kOffset, "dim0");
    auto dst = tinyLayout("dim0", 2);
    auto r = codegen::tryPlanConversion(src, dst, 4,
                                        sim::GpuSpec::gh200());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::InvalidInput);
    EXPECT_THROW(
        codegen::planConversion(src, dst, 4, sim::GpuSpec::gh200()),
        UserError);
}

TEST(EngineValidation, AnchorRejectsDegenerateTypes)
{
    engine::LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    EXPECT_THROW(eng.anchorForMemory({ir::DType::F32, {}}), UserError);
    EXPECT_THROW(eng.anchorForMemory({ir::DType::F32, {16, 0}}),
                 UserError);
}

TEST(EngineValidation, DotResultRejectsBadAccumulators)
{
    engine::LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    EXPECT_THROW(eng.dotResultLayout({ir::DType::F32, {128}}, 16),
                 UserError);
    EXPECT_THROW(eng.dotResultLayout({ir::DType::F32, {64, 64}}, 0),
                 UserError);
}

TEST(EngineValidation, DotOperandRejectsMismatchedShapes)
{
    engine::LayoutEngine eng({sim::GpuSpec::gh200(), 4});
    ir::TensorType acc{ir::DType::F32, {64, 64}};
    ir::TensorType a{ir::DType::F16, {64, 32}};
    EXPECT_THROW(eng.dotOperandLayout(a, acc, 2, 16), UserError);
    ir::TensorType wrongM{ir::DType::F16, {32, 32}};
    EXPECT_THROW(eng.dotOperandLayout(wrongM, acc, 0, 16), UserError);
    ir::TensorType wrongN{ir::DType::F16, {32, 32}};
    EXPECT_THROW(eng.dotOperandLayout(wrongN, acc, 1, 16), UserError);
}

// --------------------------------------------------------------------
// Fallback metadata: failpoint sets round-trip through the corpus text
// format (a shrunk reproducer must replay its injected faults).
// --------------------------------------------------------------------

TEST(PlanMetadata, CaseIoPreservesFailpoints)
{
    auto c = sharedMemoryCase();
    c.failpoints = {"plan.optimal-swizzle", "plan.legacy-swizzle"};
    std::stringstream ss;
    check::writeCase(ss, c);
    auto back = check::readCase(ss);
    EXPECT_EQ(back.failpoints, c.failpoints);
    EXPECT_EQ(back.elemBytes, c.elemBytes);
    EXPECT_EQ(back.src, c.src);
    EXPECT_EQ(back.dst, c.dst);
    // And the round-tripped case actually plans under those faults.
    auto report = check::checkConversionCase(back);
    EXPECT_EQ(report.kind, codegen::ConversionKind::SharedPadded);
    EXPECT_TRUE(report.ok()) << report.toString();
}

// --------------------------------------------------------------------
// Shrunk reproducers of real bugs llfuzz found in this codebase. Each
// failed before its fix and documents the failure mode in comments.
// --------------------------------------------------------------------

TEST(LLFuzzRegression, LaneHeldDataIsNotARegisterPermute)
{
    // Found by llfuzz --seed 1 (shrunk from blocked[128] -> blocked[128]
    // @rtx4090): conversionIsRegisterPermute read the conversion
    // matrix's columns with field boundaries from the SOURCE layout but
    // column values in the DESTINATION's flat input space, so with
    // different register counts a lane bit was mistaken for a register
    // bit and a cross-lane conversion was "planned" as a free permute.
    LinearLayout::BasesT srcBases;
    srcBases.insert(kReg, {});
    srcBases.insert(kLane, {{1}});
    srcBases.insert(kWarp, {});
    LinearLayout src(std::move(srcBases), {{"dim0", 2}},
                     /*requireSurjective=*/true);
    LinearLayout::BasesT dstBases;
    dstBases.insert(kReg, {{1}});
    dstBases.insert(kLane, {});
    dstBases.insert(kWarp, {});
    LinearLayout dst(std::move(dstBases), {{"dim0", 2}},
                     /*requireSurjective=*/true);
    EXPECT_FALSE(codegen::conversionIsRegisterPermute(src, dst));
    check::ConversionCase c;
    c.src = src;
    c.dst = dst;
    c.elemBytes = 4;
    c.specName = "rtx4090";
    auto report = check::checkConversionCase(c);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(LLFuzzRegression, ReplicatedDestinationNeedsEveryCopyChecked)
{
    // Same llfuzz run, full-size form: when the destination replicates
    // an element across threads (broadcast bases), the old src->dst
    // pseudo-inverse check confirmed only ONE replica's thread; other
    // threads needed elements they never held. The availability-coset
    // criterion checks every thread.
    triton::BlockedEncoding a;
    a.sizePerThread = {4};
    a.threadsPerWarp = {32};
    a.warpsPerCta = {4};
    a.order = {0};
    triton::BlockedEncoding b = a;
    b.sizePerThread = {1};
    b.threadsPerWarp = {32};
    b.warpsPerCta = {4};
    auto src = a.toLinearLayout({128});
    auto dst = b.toLinearLayout({128});
    check::ConversionCase c;
    c.src = src;
    c.dst = dst;
    c.elemBytes = 4;
    c.specName = "rtx4090";
    auto report = check::checkConversionCase(c);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(LLFuzzRegression, Mi250WavefrontsCountSixtyFourLaneGroups)
{
    // Found by llfuzz --seed 1 (blocked[2x2x16] -> blocked[2x2x16]
    // @mi250 b4): analyticWavefronts assumed 32-lane warps, but a
    // 64-lane wavefront times 4 bytes spans two 128-byte groups, so the
    // simulator measured exactly 2x the analytic count. The formula now
    // scales with the layout's lane count (wavefrontGroups).
    std::mt19937 rng(1);
    check::GenOptions gen;
    gen.warpSize = 64;
    const triton::Shape shape = {2, 2, 16};
    for (int i = 0; i < 8; ++i) {
        auto a = check::randomBlocked(rng, 3, gen);
        auto b = check::randomBlocked(rng, 3, gen);
        check::ConversionCase c;
        c.src = a.toLinearLayout(shape);
        c.dst = b.toLinearLayout(shape);
        c.elemBytes = 4;
        c.specName = "mi250";
        auto report = check::checkConversionCase(c);
        EXPECT_TRUE(report.ok()) << "iter " << i << ": "
                                 << report.toString();
        if (report.kind == codegen::ConversionKind::SharedMemory) {
            EXPECT_TRUE(report.audited);
        }
    }
}

// ----------------------------------------------------------------------
// Static plan validation (codegen::validatePlan)
// ----------------------------------------------------------------------

std::vector<check::ConversionCase>
corpusCases()
{
    std::vector<std::string> paths;
    for (const auto &e :
         std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
        if (e.path().extension() == ".txt")
            paths.push_back(e.path().string());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<check::ConversionCase> out;
    for (const auto &p : paths)
        out.push_back(check::readCaseFile(p));
    return out;
}

/** Every rung-knockout set the ladder can be forced through: none
 *  (the terminal rung's set is empty) up to "everything above the
 *  scalar rung". */
const std::vector<codegen::ConversionKind> kKnockoutKinds = {
    codegen::ConversionKind::NoOp,
    codegen::ConversionKind::RegisterPermute,
    codegen::ConversionKind::WarpShuffle,
    codegen::ConversionKind::SharedMemory,
    codegen::ConversionKind::SharedPadded,
    codegen::ConversionKind::SharedScalar,
};

codegen::ConversionPlan
planUnder(const check::ConversionCase &c, codegen::ConversionKind knockout)
{
    auto sites = c.failpoints;
    for (const auto &s : codegen::demotionSitesFor(knockout))
        sites.push_back(s);
    failpoint::ScopedSet guard(sites);
    return codegen::planConversion(c.src, c.dst, c.elemBytes, c.spec());
}

TEST(Validator, AcceptsEveryCorpusPlanUnderEveryKnockout)
{
    const auto cases = corpusCases();
    ASSERT_EQ(cases.size(), 40u);
    for (const auto &c : cases) {
        for (auto knockout : kKnockoutKinds) {
            auto plan = planUnder(c, knockout);
            auto bad =
                codegen::validatePlan(plan, c.src, c.elemBytes, c.spec());
            EXPECT_FALSE(bad.has_value())
                << c.summary << " below " << toString(knockout) << ": "
                << bad->toString();
        }
    }
}

TEST(Validator, RejectsEverySwizzleAliasedSharedPlan)
{
    int corrupted = 0;
    for (const auto &c : corpusCases()) {
        for (auto knockout : kKnockoutKinds) {
            auto plan = planUnder(c, knockout);
            if (!check::injectSwizzleAliasBug(plan))
                continue;
            ++corrupted;
            auto bad =
                codegen::validatePlan(plan, c.src, c.elemBytes, c.spec());
            ASSERT_TRUE(bad.has_value())
                << c.summary << " below " << toString(knockout);
            EXPECT_EQ(bad->code, DiagCode::PlannerInternalError);
            EXPECT_EQ(bad->stage, "plan.validate");
        }
    }
    // Every case reaches a shared rung under the deeper knockouts.
    EXPECT_GE(corrupted, 40 * 3);
}

TEST(Validator, RejectsOutOfRangeShuffleSchedules)
{
    // Same warp tiling, different thread/register split: a conversion
    // that plans to the shuffle rung on gh200.
    triton::BlockedEncoding a;
    a.sizePerThread = {1, 4};
    a.threadsPerWarp = {8, 4};
    a.warpsPerCta = {2, 2};
    a.order = {1, 0};
    triton::BlockedEncoding b = a;
    b.sizePerThread = {4, 1};
    b.threadsPerWarp = {2, 16};
    const triton::Shape shape = {16, 64};
    const LinearLayout src = a.toLinearLayout(shape);
    const auto spec = sim::GpuSpec::gh200();
    const auto plan =
        codegen::planConversion(src, b.toLinearLayout(shape), 2, spec);
    ASSERT_EQ(plan.kind, codegen::ConversionKind::WarpShuffle);
    ASSERT_FALSE(codegen::validatePlan(plan, src, 2, spec).has_value());
    ASSERT_FALSE(plan.shuffle->xfers.empty());
    ASSERT_FALSE(plan.shuffle->xfers[0].empty());
    ASSERT_FALSE(plan.shuffle->xfers[0][0].regPairs.empty());

    auto rejects = [&](auto &&corrupt) {
        codegen::ConversionPlan bad = plan;
        corrupt(*bad.shuffle);
        auto diag = codegen::validatePlan(bad, src, 2, spec);
        return diag.has_value() &&
               diag->code == DiagCode::PlannerInternalError;
    };
    EXPECT_TRUE(rejects([](codegen::WarpShufflePlan &p) {
        p.xfers[0][0].srcLane = p.warpSize;
    }));
    EXPECT_TRUE(rejects([](codegen::WarpShufflePlan &p) {
        p.xfers[0][0].srcLane = -1;
    }));
    EXPECT_TRUE(rejects([](codegen::WarpShufflePlan &p) {
        p.xfers[0][0].regPairs[0].first = p.numRegsA;
    }));
    EXPECT_TRUE(rejects([](codegen::WarpShufflePlan &p) {
        p.xfers[0][0].regPairs[0].second = p.numRegsB;
    }));
    EXPECT_TRUE(rejects([](codegen::WarpShufflePlan &p) {
        p.warpSize = 0;
    }));
}

} // namespace
} // namespace ll
