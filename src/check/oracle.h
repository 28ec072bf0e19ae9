/**
 * @file
 * Differential correctness oracle for conversion plans.
 *
 * The planner of Section 5.4 claims every lowering it emits — no-op,
 * register permute, warp shuffle, swizzled shared memory — moves every
 * tensor element to exactly the register the destination layout demands.
 * This module checks that claim the slow, trusted way: enumerate every
 * (register, lane, warp) index of the source layout, tag it with its
 * flattened tensor element (dense F2 matrix application, no simulator
 * shortcuts), execute the plan on that register file, and compare the
 * result element-for-element against the destination layout's demands.
 *
 * Shared-memory plans are additionally audited for bank conflicts: the
 * wavefronts the simulator measures while executing must equal the
 * analytic Lemma 9.4 numbers the plan was priced with. Any divergence is
 * a bug in either the cost model or the simulator, and fails the check.
 */

#ifndef LL_CHECK_ORACLE_H
#define LL_CHECK_ORACLE_H

#include <functional>
#include <string>

#include "check/generators.h"
#include "codegen/conversion.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace check {

/** Everything one oracle run learned about one plan. */
struct OracleReport
{
    codegen::ConversionKind kind = codegen::ConversionKind::NoOp;

    /** Plan shape matched the layouts (register counts, warp sizes). */
    bool structureOk = true;
    int64_t elementsChecked = 0;
    /** Destination registers holding the wrong element. */
    int64_t mismatches = 0;
    /** Data movements that broke the plan kind's locality promise
     *  (register permutes leaving the thread, etc.). */
    int64_t localityViolations = 0;

    // Per-access bank-conflict audit (unpadded shared plans: the
    // Lemma 9.4 analytic numbers must match what the simulator measures
    // on every access).
    bool audited = false;
    int64_t analyticStorePerAccess = 0;
    int64_t analyticLoadPerAccess = 0;
    int64_t storeInstructions = 0;
    int64_t loadInstructions = 0;
    int64_t measuredStoreWavefronts = 0;
    int64_t measuredLoadWavefronts = 0;

    // Whole-pass totals audit (every shared kind; the only valid audit
    // for SharedPadded, where padding breaks Lemma 9.4's per-access
    // uniformity): the enumerated totals the plan was priced with must
    // equal the wavefronts the simulator measured.
    bool totalsAudited = false;
    int64_t plannedStoreTotal = 0;
    int64_t plannedLoadTotal = 0;

    /** Human-readable description of the first failure, if any. */
    std::string detail;

    bool
    wavefrontsDiverge() const
    {
        return audited &&
               (measuredStoreWavefronts !=
                    analyticStorePerAccess * storeInstructions ||
                measuredLoadWavefronts !=
                    analyticLoadPerAccess * loadInstructions);
    }

    bool
    totalsDiverge() const
    {
        return totalsAudited &&
               (measuredStoreWavefronts != plannedStoreTotal ||
                measuredLoadWavefronts != plannedLoadTotal);
    }

    bool
    ok() const
    {
        return structureOk && mismatches == 0 &&
               localityViolations == 0 && !wavefrontsDiverge() &&
               !totalsDiverge();
    }

    std::string toString() const;
};

/**
 * Verify one already-planned conversion. Layouts must be surjective
 * distributed-style layouts with register/lane/warp input dims over the
 * same output space.
 */
OracleReport checkPlan(const codegen::ConversionPlan &plan,
                       const LinearLayout &src, const LinearLayout &dst,
                       int elemBytes, const sim::GpuSpec &spec);

/** Hook to corrupt a plan between planning and checking (bug-injection
 *  self tests and shrinking of injected failures). */
using PlanMutator = std::function<void(codegen::ConversionPlan &)>;

/** Plan the case's conversion, optionally mutate the plan, then check.
 *  The case's failpoint set is active for the duration of planning and
 *  checking. Exceptions from planning/execution propagate to the
 *  caller. */
OracleReport checkConversionCase(const ConversionCase &c,
                                 const PlanMutator &mutate = nullptr);

/** A demotion-aware oracle run: what happened on the way down. */
struct DemotionReport
{
    /** The rung the planner picked before any execution failure. */
    codegen::ConversionKind initialKind = codegen::ConversionKind::NoOp;
    /** The rung whose execution finally succeeded (== the checked
     *  plan's kind). */
    codegen::ConversionKind finalKind = codegen::ConversionKind::NoOp;
    /** Execution-triggered demotion steps taken. */
    int demotions = 0;
    /** False when execution failed on the terminal rung or a demoted
     *  re-plan could not be built; `report` is then default-initialized
     *  and must not be trusted. */
    bool survived = true;
    /** The full oracle verdict on the finally-executed plan. */
    OracleReport report;
    /** ExecDiagnostics and re-plan failures accumulated on the way. */
    std::vector<std::string> notes;
};

/**
 * Execution-driven demotion as an audit on one conversion case, then
 * the full oracle on the surviving plan: plan the case (under its
 * failpoint set), smoke-execute, and on an ExecDiagnostic re-plan one
 * rung down via codegen::tryReplanBelow until execution succeeds. The
 * compile path executes no plans (the planner validates them
 * statically, codegen::validatePlan); this audit keeps the executors'
 * failure paths and the demoted rungs proven, and is how the
 * exec-fallback tests show a demoted re-plan still round-trips
 * bit-exactly. Planning failures propagate as exceptions, like
 * checkConversionCase.
 */
DemotionReport checkCaseWithDemotion(const ConversionCase &c);

/**
 * The canonical injected bug: zero the first nonzero basis vector of the
 * plan's tensor->offset map, aliasing two tensor elements onto one
 * shared-memory address — the classic dropped-swizzle-bit codegen bug.
 * Returns false (and leaves the plan alone) for non-shared plans.
 */
bool injectSwizzleAliasBug(codegen::ConversionPlan &plan);

} // namespace check
} // namespace ll

#endif // LL_CHECK_ORACLE_H
