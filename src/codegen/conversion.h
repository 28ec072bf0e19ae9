/**
 * @file
 * Layout-conversion lowering selector (Sections 5.3-5.4).
 *
 * Given source and destination distributed layouts, pick the cheapest
 * correct lowering, mirroring the decision procedure linear layouts
 * enable in Triton:
 *
 *   1. no-op            — B^-1 . A is the identity modulo broadcast;
 *   2. register permute — data never leaves its thread;
 *   3. warp shuffles    — data never leaves its warp (and no broadcast);
 *   4. shared memory    — general case, through an optimally swizzled
 *                         scratch layout, with ldmatrix/stmatrix when
 *                         the hardware has them and the tiles divide;
 *   5. padded shared    — unswizzled row-major scratch with bank-offset
 *                         padding, when no swizzle basis can be built;
 *   6. scalar shared    — element-wise round trip, correct for any pair
 *                         of surjective layouts; the terminal rung.
 *
 * Rungs 4-6 form a fallback ladder: planning is a total function over
 * valid inputs. A rung that cannot be built (degenerate basis, failed
 * invariant, injected failpoint) contributes a Diagnostic to the plan's
 * notes and the planner steps down; only invalid *inputs* are rejected,
 * and only via the structured tryPlanConversion interface or the
 * UserError-throwing planConversion wrapper.
 *
 * The returned plan carries enough detail for the simulator to execute
 * it on data and for the cost model to price it, plus the diagnostics
 * explaining every rung that was skipped on the way down.
 */

#ifndef LL_CODEGEN_CONVERSION_H
#define LL_CODEGEN_CONVERSION_H

#include <optional>
#include <string>
#include <vector>

#include "codegen/shuffle.h"
#include "codegen/swizzle.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/result.h"

namespace ll {
namespace codegen {

enum class ConversionKind
{
    NoOp,
    RegisterPermute,
    WarpShuffle,
    SharedMemory,
    SharedPadded,
    SharedScalar,
};

std::string toString(ConversionKind kind);

struct ConversionPlan
{
    ConversionKind kind = ConversionKind::NoOp;

    /** Present when kind == WarpShuffle. */
    std::optional<WarpShufflePlan> shuffle;

    /** Present for the shared-memory kinds (SharedMemory, SharedPadded,
     *  SharedScalar). */
    std::optional<SwizzledShared> shared;
    bool usesLdmatrix = false;
    bool usesStmatrix = false;
    /** Analytic per-warp-access wavefronts (Lemma 9.4); valid for the
     *  unpadded shared kinds only. */
    int64_t storeWavefrontsPerAccess = 0;
    int64_t loadWavefrontsPerAccess = 0;
    /** Enumerated whole-pass wavefront totals (warps x register groups);
     *  filled for every shared kind, and the only valid accounting for
     *  SharedPadded, where Lemma 9.4's uniformity assumption fails. */
    int64_t storeWavefrontsTotal = 0;
    int64_t loadWavefrontsTotal = 0;

    /**
     * Why the planner ended up on this rung: one note per rung that was
     * tried and skipped above the selected one. Empty when the first
     * applicable rung was taken without incident.
     */
    PlanDiagnostics diagnostics;

    /**
     * Modeled cost in cycles for converting one CTA worth of data.
     * numWarps warps each hold regs-per-thread elements.
     *
     * This is the *selection* cost: the fallback rungs are priced by a
     * worst-case bound so the ladder stays monotone by construction,
     * which is what rung ordering needs (see the rung-6 comment in the
     * implementation). Use reportingCycles() for the measured side.
     */
    double estimateCycles(const LinearLayout &src, int elemBytes,
                          const sim::GpuSpec &spec) const;

    /**
     * The *reporting* cost: cycles implied by the measured enumerated
     * wavefront totals (store + load serialized per warp, plus one
     * round-trip barrier per pass), with no worst-case pessimism and no
     * ldmatrix/stmatrix discount. This is the calibration ledger's
     * measured side; selection-vs-reporting disagreement is exactly the
     * signal the profile-guided cost model (ROADMAP item 1) trains on.
     * For the kinds with no shared accounting (NoOp, RegisterPermute,
     * WarpShuffle) there is nothing measured and this returns
     * estimateCycles().
     */
    double reportingCycles(const LinearLayout &src, int elemBytes,
                           const sim::GpuSpec &spec) const;
};

/**
 * Plan the conversion of a tensor from layout `src` to layout `dst`
 * (both distributed layouts over the same logical tensor), stepping
 * down the fallback ladder as rungs fail. Total over valid inputs: a
 * Diagnostic comes back only for invalid inputs
 * (DiagCode::InvalidInput — mismatched output spaces, non-distributed
 * in-dims, unsupported element size, non-surjective layouts) or if
 * every rung including the terminal scalar one was disabled (only
 * reachable by failpoint injection).
 */
Result<ConversionPlan> tryPlanConversion(const LinearLayout &src,
                                         const LinearLayout &dst,
                                         int elemBytes,
                                         const sim::GpuSpec &spec);

/**
 * Throwing convenience wrapper over tryPlanConversion: raises UserError
 * carrying the Diagnostic text when planning fails.
 */
ConversionPlan planConversion(const LinearLayout &src,
                              const LinearLayout &dst, int elemBytes,
                              const sim::GpuSpec &spec);

/**
 * Re-plan after an execution failure of a plan of kind `failed`: resume
 * the fallback ladder at the rung strictly below it, without evaluating
 * (or even opening spans for) the rungs at or above. This is what the
 * oracle's demotion audit (check::checkCaseWithDemotion) uses; it is
 * equivalent to re-running tryPlanConversion under the
 * demotionSitesFor(failed) knockout set, minus the wasted rung
 * evaluations and the FailpointInjected notes that knockout would
 * leave in the plan's diagnostics. Returns a Diagnostic when `failed` is the terminal
 * SharedScalar rung (nowhere left to demote to) or when every remaining
 * rung also fails.
 */
Result<ConversionPlan> tryReplanBelow(ConversionKind failed,
                                      const LinearLayout &src,
                                      const LinearLayout &dst,
                                      int elemBytes,
                                      const sim::GpuSpec &spec);

/**
 * Every failpoint site the planner consults, in ladder order, minus the
 * terminal "plan.scalar" (activating that together with the rest leaves
 * no rung standing, which is an engine-survival scenario rather than a
 * fallback one). Used by llfuzz --failpoint-rate and the fallback tests.
 */
std::vector<std::string> plannerFailpointSites();

/**
 * Every failpoint site the Result-returning executors consult
 * (exec.shuffle.*, exec.gather.*, exec.shared.*). These guard the
 * execution-time error paths rather than planning rungs; activating one
 * with a limit of 1 fails exactly one execution attempt, so a demoted
 * re-plan's smoke execution succeeds. Nothing on the compile path
 * executes plans, so these fire only under the oracle's demotion audit
 * and direct executor calls. Used by llfuzz --failpoint-coverage and
 * the exec-fallback tests.
 */
std::vector<std::string> executionFailpointSites();

/**
 * The planner-failpoint knockout set that forces a re-plan strictly
 * below `kind` on the fallback ladder (every rung at or above it is
 * disabled). Empty for SharedScalar: the terminal rung has nowhere to
 * demote to, so an execution failure there ends the demotion audit.
 */
std::vector<std::string> demotionSitesFor(ConversionKind kind);

/**
 * Check `plan` statically against the conditions its executors report
 * as ExecDiagnostics, without moving data, in time linear in the plan.
 * Shared kinds: the tensor->offset map is injective (rank equals its
 * input bits), padding and window are vec-aligned and the window is a
 * power of two, every vectorized access lies inside the padded
 * storage, and the allocation fits the CTA. WarpShuffle: a positive
 * warp size, no round wider than the warp, and every source lane and
 * register pair in range. NoOp and RegisterPermute have no executor
 * and pass. The planner runs the same checks on every shared candidate
 * and shuffle schedule it builds, so a planned conversion always
 * passes; the first violation comes back as a PlannerInternalError
 * Diagnostic (stage "plan.validate").
 */
std::optional<Diagnostic> validatePlan(const ConversionPlan &plan,
                                       const LinearLayout &src,
                                       int elemBytes,
                                       const sim::GpuSpec &spec);

/**
 * Execute `plan` once on tagged data to prove its executors are sound
 * for these layouts: WarpShuffle runs its shuffle schedule for warp 0
 * (the schedule is warp-invariant), the shared kinds run the full
 * simulated round trip. NoOp and RegisterPermute have no executor and
 * trivially pass. Returns the first executor failure, or nullopt when
 * execution succeeded — correctness of the *data* is the oracle's job
 * (src/check), not this smoke test's. Not part of the compile path
 * (planning checks plans with validatePlan); the oracle's demotion
 * audit, llstat replay and the benchmark's replay use it.
 */
std::optional<ExecDiagnostic>
smokeExecutePlan(const ConversionPlan &plan, const LinearLayout &src,
                 const LinearLayout &dst, int elemBytes,
                 const sim::GpuSpec &spec);

/**
 * Deterministic, exhaustive rendering of a plan: kind, the shuffle
 * schedule digest (vec/rounds/regs plus a checksum over every
 * transfer), the shared scratch layouts with padding and window
 * parameters, ldmatrix/stmatrix selection, wavefront accounting, and
 * the diagnostic notes. Two plans render identically iff they describe
 * the same lowering, so cached plans can be compared bit-for-bit
 * against freshly planned ones. Plans are immutable after planning
 * (every member function is const), which is what lets the service
 * share one `shared_ptr<const ConversionPlan>` across threads.
 */
std::string describePlan(const ConversionPlan &plan);

} // namespace codegen
} // namespace ll

#endif // LL_CODEGEN_CONVERSION_H
