/**
 * @file
 * Triton's layout engine rebuilt on linear layouts (Section 4.4).
 *
 * The engine assigns *anchor* layouts — default blocked layouts at
 * global loads/stores and MMA / MMA-input layouts at dots — then
 * propagates layouts forward through the remaining ops using the
 * Section 4.4 transfer functions, inserting ConvertLayout ops where an
 * operand arrives in the wrong layout. A cleanup pass then removes
 * conversions that linear layouts can prove to be no-ops (including
 * across layout *kinds*, which the legacy system could not compare) and
 * hoists conversions through shape ops when that turns them into no-ops
 * (rematerialization). Every surviving conversion is then lowered
 * through service::serveConversion — the same cache-aware plan path the
 * compilation service uses — and the op keeps that plan (ir::Op::plan,
 * the very object the plan cache holds), which the cost model prices
 * instead of planning again. The planner checks each plan statically
 * (codegen::validatePlan) as it builds it; nothing on this compile path
 * executes a plan on data.
 */

#ifndef LL_ENGINE_LAYOUT_ENGINE_H
#define LL_ENGINE_LAYOUT_ENGINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cute/admit.h"
#include "ir/function.h"
#include "sim/gpu_spec.h"
#include "synth/synthesize.h"

namespace ll {

namespace service {
class PlanCache;
}

namespace engine {

struct EngineOptions
{
    sim::GpuSpec spec = sim::GpuSpec::gh200();
    int numWarps = 4;
    /** Shared, sharded plan cache (borrowed, not owned; nullptr
     *  disables). Every ConvertLayout op is planned through
     *  service::serveConversion with this cache, so a hit serves the
     *  memoized plan — or a memoized InvalidInput rejection — without
     *  planning anything, counted in EngineStats::planCacheHits /
     *  planCacheNegativeHits. Plans shaped by failpoints or deadlines,
     *  or planned while any failpoint was active, are never inserted. */
    service::PlanCache *planCache = nullptr;
    /** Run the whole-kernel anchor-assignment search (src/synth) before
     *  propagation and adopt its winning assignment when the true cost
     *  model prices it strictly below the default. Never worse: the
     *  default assignment is always evaluated too and wins ties, so a
     *  synthesized run's kernel cost is <= the synth-off run's by
     *  construction. Off (the default) keeps the engine bit-identical
     *  to the propagation-only path. */
    bool synthesizeLayouts = false;
    /** Search knobs for synthesizeLayouts. The planCache field is
     *  overwritten with EngineOptions::planCache at run time so edge
     *  pricing shares the engine's cache. */
    synth::SynthOptions synthOptions{};
};

struct EngineStats
{
    int convertsInserted = 0;
    int convertsEliminated = 0;
    /** ConvertLayout ops surviving cleanup that received a lowering
     *  plan (ir::Op::plan). */
    int convertsPlanned = 0;
    /** Plans that stepped down the fallback ladder — the planner
     *  succeeded but left diagnostics explaining skipped rungs. */
    int planFallbacks = 0;
    /** Conversions whose planning failed outright; the op is left
     *  unplanned (null ir::Op::plan) and the function still verifies —
     *  the engine downgrades, it does not abort. */
    int planFailures = 0;
    /** Shape-transfer functions that threw (or were failpointed via
     *  "engine.transfer") and fell back to the anchor layout. */
    int transferFallbacks = 0;
    /** Conversions whose execution failed. Nothing on the compile path
     *  executes a plan (the planner validates plans statically), so
     *  the engine and the service never write this; it stays zero and
     *  is kept for readers that still sum it. */
    int execFailures = 0;
    /** Conversions served whole from the shared plan cache
     *  (EngineOptions::planCache), without planning. Mirrored as
     *  "engine.plan_cache_hits"; the cache's own counters live under
     *  "service.plan_cache.*". */
    int planCacheHits = 0;
    /** Conversions rejected from a memoized InvalidInput entry; also
     *  counted in planFailures (the op is left unplanned). */
    int planCacheNegativeHits = 0;
    /** Conversions that consulted the shared plan cache and missed. */
    int planCacheMisses = 0;
    /** Conversions the synthesized assignment avoided relative to the
     *  default assignment (surviving-after-cleanup counts, default
     *  minus chosen). Folded into convertsEliminated — the headline
     *  counter keeps meaning "conversions that did not survive" — and
     *  mirrored separately as "synth.converts_eliminated" so the
     *  propagation-vs-synthesis partition stays visible (llstat
     *  --validate-bench-json checks it sums). Zero when synthesis is
     *  off or chose the default. */
    int synthConvertsEliminated = 0;
    /** Complete assignments repriced with the true pipeline (a trial
     *  compile — assignForward + cleanup + planConversions — priced by
     *  estimateKernelCost), including the default. Zero when synthesis
     *  is off. */
    int synthAssignmentsEvaluated = 0;
    /** 1 when the run adopted a non-default assignment. */
    int synthChoseSynthesized = 0;
    /** True-cost-model cycles of the default and of the adopted
     *  assignment for this run (equal unless synthChoseSynthesized). */
    double synthDefaultCycles = 0.0;
    double synthChosenCycles = 0.0;
    /** Human-readable notes from every fallback or failure, in op
     *  order. */
    std::vector<std::string> planDiagnostics;
    /** Per-run delta of every registry counter that moved during this
     *  run (metrics::Registry names — see DESIGN.md "Observability").
     *  The int fields above are mirrors of the engine.* entries here;
     *  they keep working unchanged. When the calibration ledger is
     *  recording (LL_LEDGER), the plan.calib.* family appears here too:
     *  records / terminal_records / conversions / dedup_skips /
     *  observations counter deltas, surfacing per-run ledger activity
     *  without the caller touching ledger::Ledger (DESIGN.md §16; the
     *  plan.calib.error_ratio histogram lives in the registry's
     *  exposition, histograms are not delta-snapshotted). */
    std::map<std::string, int64_t> metrics;
};

class LayoutEngine
{
  public:
    explicit LayoutEngine(EngineOptions options)
        : options_(std::move(options))
    {
    }

    /** Annotate every value with a layout; insert and clean up
     *  conversions. Returns what happened. */
    EngineStats run(ir::Function &f);

    /** The blocked anchor layout the engine assigns at loads/stores. */
    LinearLayout anchorForMemory(const ir::TensorType &type) const;

    /** The MMA/MFMA output layout chosen for a dot of this shape. */
    LinearLayout dotResultLayout(const ir::TensorType &accType,
                                 int operandBits) const;

    /** The MMA-input layout for operand opIdx of such a dot. */
    LinearLayout dotOperandLayout(const ir::TensorType &operandType,
                                  const ir::TensorType &accType,
                                  int opIdx, int operandBits) const;

    /**
     * Accept a cute (shape,stride) relayout — including non-pow2
     * logical shapes the F2 entry points reject — with this engine's
     * spec and warp configuration. The pow2 core routes through
     * EngineOptions::planCache when one is configured (sharing interned
     * layouts and cached ladder plans with ordinary conversions);
     * malformed requests fail with DiagCode::InvalidInput, and nothing
     * here answers InvalidInput merely for being non-pow2.
     */
    Result<cute::CutePlan> planCuteConversion(const cute::CuteLayout &src,
                                              const cute::CuteLayout &dst,
                                              int elemBytes) const;

  private:
    /** Anchor assignment + forward propagation. `anchorOverrides` maps
     *  anchor value ids (Load/Constant results) to synthesized layouts;
     *  anchors absent from the map (and every transfer fallback) keep
     *  the default — nullptr reproduces today's behavior exactly. */
    void assignForward(ir::Function &f, EngineStats &stats,
                       const std::map<int, LinearLayout> *anchorOverrides
                       = nullptr);
    void cleanup(ir::Function &f, EngineStats &stats);

    /** The whole compile: assignForward + cleanup + planConversions. */
    void compile(ir::Function &f, EngineStats &stats,
                 const std::map<int, LinearLayout> *anchorOverrides);

    /** Run the synth search, compile the default assignment and every
     *  finalist on a copy of `f`, price each compiled copy with
     *  estimateKernelCost, and adopt the cheapest (the default wins
     *  ties): `f` and `stats` become that trial's, plus the synth*
     *  fields. Returns false, leaving `f` untouched, when there is
     *  nothing to search or anything in the search throws. */
    bool compileSynthesized(ir::Function &f, EngineStats &stats);

    /** Lower every surviving ConvertLayout to a ConversionPlan via
     *  service::serveConversion and attach it to the op (ir::Op::plan).
     *  A plan that cannot be built leaves the op unplanned (null plan)
     *  and is recorded in the stats; nothing is executed, and this
     *  pass never throws. */
    void planConversions(ir::Function &f, EngineStats &stats);

    /** Convert operand `slot` of op `opIdx` to `want` unless it is
     *  already there (modulo broadcast). */
    void ensureOperand(ir::Function &f, int opIdx, size_t slot,
                       const LinearLayout &want, EngineStats &stats);

    EngineOptions options_;
};

} // namespace engine
} // namespace ll

#endif // LL_ENGINE_LAYOUT_ENGINE_H
