#include "synth/synthesize.h"

#include <algorithm>
#include <map>
#include <string>

#include "codegen/conversion.h"
#include "layout/dims.h"
#include "support/trace.h"

namespace ll {
namespace synth {

namespace {

using dims::regCount;
using ir::OpKind;

/** A load or store whose traffic depends on anchor `anchorIdx`'s
 *  candidate (the carried layout prices the access). */
struct MemRef
{
    int anchorIdx;
    int elemBits;
};

/** A conversion edge between an anchor-carried value and a fixed
 *  layout (MMA operand target, dot-result sibling, ...). */
struct FixedEdge
{
    int anchorIdx;
    LinearLayout other;
    bool anchorIsSrc;
    ir::DType dtype;
};

/** A conversion edge between two anchor-carried values: the `from`
 *  anchor's candidate is converted into the `to` anchor's. */
struct PairEdge
{
    int fromIdx;
    int toIdx;
    ir::DType dtype;
};

struct CostTerms
{
    std::vector<MemRef> memRefs;
    std::vector<FixedEdge> fixedEdges;
    std::vector<PairEdge> pairEdges;
};

/**
 * Plan-cache-backed conversion pricing, memoized per search. A pair
 * that proves to be a no-op costs zero; an unplannable pair is charged
 * a scalar shared round trip exactly like engine::estimateKernelCost
 * prices unplanned ConvertLayout ops.
 */
class ConversionPricer
{
  public:
    ConversionPricer(const sim::GpuSpec &spec, service::PlanCache *cache)
        : spec_(spec), cache_(cache)
    {
    }

    double
    cycles(const LinearLayout &src, const LinearLayout &dst,
           ir::DType dtype)
    {
        const std::string key = src.toString() + "|" + dst.toString() +
                                "|" + std::to_string(byteWidth(dtype));
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        double cost = price(src, dst, dtype);
        memo_.emplace(key, cost);
        return cost;
    }

  private:
    double
    price(const LinearLayout &src, const LinearLayout &dst,
          ir::DType dtype)
    {
        try {
            if (codegen::conversionIsNoOp(
                    src, dst.transposeOuts(src.getOutDimNames())))
                return 0.0;
            auto outcome =
                serveTensorConversion(cache_, src, dst, dtype, spec_);
            if (outcome.planned())
                return outcome.plan->estimateCycles(
                    src, byteWidth(dtype), spec_);
        } catch (const std::exception &) {
            // Incomparable layout spaces price like an unplannable
            // conversion below.
        }
        return spec_.sharedRoundTripCycles +
               2.0 * regCount(src) * spec_.sharedWavefrontCycles;
    }

    const sim::GpuSpec &spec_;
    service::PlanCache *cache_;
    std::map<std::string, double> memo_;
};

CostTerms
collectCostTerms(const ir::Function &f, const PropagationMap &prop,
                 const std::vector<int> &anchorIdx,
                 const sim::GpuSpec &spec, int numWarps)
{
    CostTerms terms;
    auto idxOf = [&](int valueId) -> int {
        const int a = prop.carrier[static_cast<size_t>(valueId)];
        return a < 0 ? -1 : anchorIdx[static_cast<size_t>(a)];
    };
    auto sameShape = [&](int a, int b) {
        return f.value(a).type.shape == f.value(b).type.shape;
    };
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased)
            continue;
        switch (o.kind) {
          case OpKind::Load:
          case OpKind::Store: {
            const int v = o.kind == OpKind::Load ? o.results[0]
                                                 : o.operands[0];
            const int idx = idxOf(v);
            if (idx >= 0)
                terms.memRefs.push_back(
                    {idx, bitWidth(f.value(v).type.dtype)});
            break;
          }
          case OpKind::Dot: {
            if (isFmaDot(f, o))
                break; // FMA dots keep blocked operands: no MMA edge
            const auto &tacc = f.value(o.results[0]).type;
            const int bits = dotOperandBits(f, o);
            for (int s = 0; s < 2; ++s) {
                const int v = o.operands[s];
                const int idx = idxOf(v);
                if (idx < 0)
                    continue;
                try {
                    terms.fixedEdges.push_back(
                        {idx,
                         dotOperandLayout(f.value(v).type, tacc, s,
                                          bits, spec, numWarps),
                         /*anchorIsSrc=*/true, f.value(v).type.dtype});
                } catch (const std::exception &) {
                    // No MMA operand layout for this shape: the edge
                    // is the same for every candidate, drop it.
                }
            }
            break;
          }
          case OpKind::Elementwise:
          case OpKind::Join:
          case OpKind::Gather: {
            const int lead = o.operands[0];
            const int leadIdx = idxOf(lead);
            const auto &leadFixed =
                prop.fixed[static_cast<size_t>(lead)];
            for (size_t s = 1; s < o.operands.size(); ++s) {
                const int v = o.operands[s];
                if (!sameShape(v, lead))
                    continue; // broadcast-compatible slots stay no-ops
                const int vIdx = idxOf(v);
                const auto &vFixed =
                    prop.fixed[static_cast<size_t>(v)];
                const ir::DType dtype = f.value(v).type.dtype;
                if (vIdx >= 0 && leadIdx >= 0 && vIdx != leadIdx)
                    terms.pairEdges.push_back({vIdx, leadIdx, dtype});
                else if (vIdx >= 0 && leadIdx < 0 &&
                         leadFixed.has_value())
                    terms.fixedEdges.push_back(
                        {vIdx, *leadFixed, /*anchorIsSrc=*/true,
                         dtype});
                else if (vIdx < 0 && leadIdx >= 0 &&
                         vFixed.has_value())
                    terms.fixedEdges.push_back(
                        {leadIdx, *vFixed, /*anchorIsSrc=*/false,
                         dtype});
            }
            break;
          }
          default:
            break;
        }
    }
    return terms;
}

/** Truncate the sorted, equal-length `states` to `width`, re-appending
 *  the all-defaults state when it would fall out (the never-worse
 *  invariant). */
void
pruneKeepingDefault(std::vector<SynthAssignment> &states, int width)
{
    const auto keep = static_cast<size_t>(width);
    if (states.size() <= keep)
        return;
    const std::vector<int> defaults(states.front().choice.size(), 0);
    auto it = std::find_if(states.begin(), states.end(),
                           [&](const SynthAssignment &s) {
                               return s.choice == defaults;
                           });
    const bool survives = it < states.begin() + width;
    SynthAssignment defaultState;
    if (!survives && it != states.end())
        defaultState = *it;
    states.resize(keep);
    if (!survives)
        states.push_back(std::move(defaultState));
}

} // namespace

SynthResult
synthesizeAnchors(const ir::Function &f, const sim::GpuSpec &spec,
                  int numWarps, const SynthOptions &opt)
{
    trace::Span span("synth.search", "synth");
    SynthResult result;
    result.anchors = anchorValues(f);
    const int n = static_cast<int>(result.anchors.size());
    if (n == 0)
        return result;

    PropagationMap prop = propagationMap(f, spec, numWarps);
    std::vector<int> anchorIdx(static_cast<size_t>(f.numValues()), -1);
    for (int i = 0; i < n; ++i)
        anchorIdx[static_cast<size_t>(result.anchors[i])] = i;

    result.candidates.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        result.candidates.push_back(
            anchorCandidates(f, result.anchors[i], prop, spec, numWarps,
                             opt.maxPerAnchor));

    CostTerms terms =
        collectCostTerms(f, prop, anchorIdx, spec, numWarps);
    ConversionPricer pricer(spec, opt.planCache);

    // Guide cost of a partial assignment: terms whose every anchor is
    // already decided. Monotone in the prefix length, so beam pruning
    // on it is meaningful.
    auto partialCost = [&](const std::vector<int> &choice) {
        const int assigned = static_cast<int>(choice.size());
        auto layoutOf = [&](int idx) -> const LinearLayout & {
            return result
                .candidates[static_cast<size_t>(idx)]
                          [static_cast<size_t>(
                               choice[static_cast<size_t>(idx)])]
                .layout;
        };
        double cost = 0.0;
        for (const MemRef &m : terms.memRefs) {
            if (m.anchorIdx >= assigned)
                continue;
            cost += static_cast<double>(globalMemorySectors(
                        layoutOf(m.anchorIdx), m.elemBits, spec)) *
                    spec.globalSectorCycles;
        }
        for (const FixedEdge &e : terms.fixedEdges) {
            if (e.anchorIdx >= assigned)
                continue;
            cost += e.anchorIsSrc
                        ? pricer.cycles(layoutOf(e.anchorIdx), e.other,
                                        e.dtype)
                        : pricer.cycles(e.other, layoutOf(e.anchorIdx),
                                        e.dtype);
        }
        for (const PairEdge &e : terms.pairEdges) {
            if (e.fromIdx >= assigned || e.toIdx >= assigned)
                continue;
            cost += pricer.cycles(layoutOf(e.fromIdx),
                                  layoutOf(e.toIdx), e.dtype);
        }
        return cost;
    };

    // Deterministic ordering: cost first, then the lexicographically
    // smallest choice vector (which also ranks the all-defaults
    // assignment first among equals).
    auto better = [](const SynthAssignment &a, const SynthAssignment &b) {
        if (a.cost != b.cost)
            return a.cost < b.cost;
        return a.choice < b.choice;
    };

    double crossProduct = 1.0;
    for (const auto &cands : result.candidates)
        crossProduct *= static_cast<double>(cands.size());
    result.exhaustive =
        crossProduct <= static_cast<double>(std::max(1, opt.exhaustiveLimit));

    std::vector<SynthAssignment> frontier;
    frontier.push_back({std::vector<int>{}, 0.0});
    const int beamWidth = std::max(1, opt.beamWidth);
    for (int level = 0; level < n; ++level) {
        std::vector<SynthAssignment> next;
        const int numCands = static_cast<int>(
            result.candidates[static_cast<size_t>(level)].size());
        for (const SynthAssignment &state : frontier) {
            for (int c = 0; c < numCands; ++c) {
                SynthAssignment ext;
                ext.choice = state.choice;
                ext.choice.push_back(c);
                ext.cost = partialCost(ext.choice);
                ++result.statesExpanded;
                next.push_back(std::move(ext));
            }
        }
        std::sort(next.begin(), next.end(), better);
        if (!result.exhaustive)
            pruneKeepingDefault(next, beamWidth);
        frontier = std::move(next);
    }

    pruneKeepingDefault(frontier, std::max(1, opt.maxRankedAssignments));
    result.ranked = std::move(frontier);

    const std::vector<int> defaults(static_cast<size_t>(n), 0);
    for (size_t i = 0; i < result.ranked.size(); ++i)
        if (result.ranked[i].choice == defaults)
            result.defaultRank = static_cast<int>(i);
    llAssert(result.defaultRank >= 0,
             "the default assignment must survive the beam");

    if (span.active()) {
        span.arg("anchors", n);
        span.arg("states_expanded", result.statesExpanded);
        span.arg("exhaustive", result.exhaustive ? 1 : 0);
        span.arg("ranked", static_cast<int>(result.ranked.size()));
    }
    return result;
}

} // namespace synth
} // namespace ll
