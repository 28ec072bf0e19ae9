#include "synth/synthesize.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "codegen/conversion.h"
#include "support/trace.h"

namespace ll {
namespace synth {

namespace {

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
 * Dense integer ids for the layouts one search prices: every candidate
 * and every fixed edge's other layout. Equal layouts (operator==) share
 * an id, found through structuralHash(). Holds pointers, so the interned
 * layouts must outlive it and stay put.
 */
class LayoutIds
{
  public:
    int
    intern(const LinearLayout &layout)
    {
        std::vector<int> &bucket = byHash_[layout.structuralHash()];
        for (int id : bucket)
            if (*layouts_[static_cast<size_t>(id)] == layout)
                return id;
        const int id = static_cast<int>(layouts_.size());
        layouts_.push_back(&layout);
        bucket.push_back(id);
        return id;
    }

    const LinearLayout &
    operator[](int id) const
    {
        return *layouts_[static_cast<size_t>(id)];
    }

  private:
    std::unordered_map<uint64_t, std::vector<int>> byHash_;
    std::vector<const LinearLayout *> layouts_;
};

/**
 * Plan-cache-backed conversion pricing, memoized per search on
 * (source id, destination id, element bytes). A pair that proves to be
 * a no-op costs zero; any other is charged conversionCycles, which
 * prices an unplannable pair exactly like engine::estimateKernelCost
 * prices an unplanned ConvertLayout op.
 */
class ConversionPricer
{
  public:
    ConversionPricer(const LayoutIds &ids, const sim::GpuSpec &spec,
                     service::PlanCache *cache)
        : ids_(ids), spec_(spec), cache_(cache)
    {
    }

    double
    cycles(int srcId, int dstId, ir::DType dtype)
    {
        const auto key = std::make_tuple(srcId, dstId, byteWidth(dtype));
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        const double cost = price(ids_[srcId], ids_[dstId], dtype);
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
            return conversionCycles(
                serveTensorConversion(cache_, src, dst, dtype, spec_)
                    .plan.get(),
                src, dtype, spec_);
        } catch (const std::exception &) {
            // Incomparable layout spaces price like an unplannable
            // conversion.
            return conversionCycles(nullptr, src, dtype, spec_);
        }
    }

    const LayoutIds &ids_;
    const sim::GpuSpec &spec_;
    service::PlanCache *cache_;
    std::map<std::tuple<int, int, int>, double> memo_;
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

/** A node or fixed-edge term: its price under each candidate of the
 *  one anchor it depends on. */
struct UnaryTable
{
    int anchorIdx;
    std::vector<double> cost;
};

/** A pair-edge term: its price under each (from, to) candidate pair,
 *  filled on first use so the search prices exactly the pairs its beam
 *  reaches. */
struct PairTable
{
    PairEdge edge;
    int numTo;
    std::vector<std::optional<double>> cost;
};

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

    LayoutIds ids;
    std::vector<std::vector<int>> candId(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        for (const LayoutCandidate &cand :
             result.candidates[static_cast<size_t>(i)])
            candId[static_cast<size_t>(i)].push_back(
                ids.intern(cand.layout));
    ConversionPricer pricer(ids, spec, opt.planCache);

    // Price every node and fixed-edge term once per candidate, before
    // the beam: it extends every candidate at every level anyway.
    // Memory terms come first, then fixed edges, each in op order.
    std::vector<UnaryTable> unary;
    for (const MemRef &m : terms.memRefs) {
        UnaryTable t{m.anchorIdx, {}};
        for (const LayoutCandidate &cand :
             result.candidates[static_cast<size_t>(m.anchorIdx)])
            t.cost.push_back(static_cast<double>(globalMemorySectors(
                                 cand.layout, m.elemBits, spec)) *
                             spec.globalSectorCycles);
        unary.push_back(std::move(t));
    }
    for (const FixedEdge &e : terms.fixedEdges) {
        const int otherId = ids.intern(e.other);
        UnaryTable t{e.anchorIdx, {}};
        for (int id : candId[static_cast<size_t>(e.anchorIdx)])
            t.cost.push_back(e.anchorIsSrc
                                 ? pricer.cycles(id, otherId, e.dtype)
                                 : pricer.cycles(otherId, id, e.dtype));
        unary.push_back(std::move(t));
    }
    std::vector<PairTable> pairs;
    for (const PairEdge &e : terms.pairEdges) {
        const int numFrom = static_cast<int>(
            result.candidates[static_cast<size_t>(e.fromIdx)].size());
        const int numTo = static_cast<int>(
            result.candidates[static_cast<size_t>(e.toIdx)].size());
        pairs.push_back(
            {e, numTo,
             std::vector<std::optional<double>>(
                 static_cast<size_t>(numFrom * numTo))});
    }

    // Each term completes at the level of its highest anchor index.
    std::vector<std::vector<const UnaryTable *>> unaryAt(
        static_cast<size_t>(n));
    for (const UnaryTable &t : unary)
        unaryAt[static_cast<size_t>(t.anchorIdx)].push_back(&t);
    std::vector<std::vector<PairTable *>> pairsAt(static_cast<size_t>(n));
    for (PairTable &t : pairs)
        pairsAt[static_cast<size_t>(
                    std::max(t.edge.fromIdx, t.edge.toIdx))]
            .push_back(&t);
    int pairsPriced = 0;
    auto pairCost = [&](PairTable &t, const std::vector<int> &choice) {
        const int from = choice[static_cast<size_t>(t.edge.fromIdx)];
        const int to = choice[static_cast<size_t>(t.edge.toIdx)];
        std::optional<double> &slot =
            t.cost[static_cast<size_t>(from * t.numTo + to)];
        if (!slot) {
            slot = pricer.cycles(
                candId[static_cast<size_t>(t.edge.fromIdx)]
                      [static_cast<size_t>(from)],
                candId[static_cast<size_t>(t.edge.toIdx)]
                      [static_cast<size_t>(to)],
                t.edge.dtype);
            ++pairsPriced;
        }
        return *slot;
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
                // Guide cost: the parent's plus the terms completing at
                // this level. Monotone in the prefix length, so beam
                // pruning on it is meaningful.
                SynthAssignment ext{state.choice, state.cost};
                ext.choice.push_back(c);
                for (const UnaryTable *t :
                     unaryAt[static_cast<size_t>(level)])
                    ext.cost += t->cost[static_cast<size_t>(c)];
                for (PairTable *t : pairsAt[static_cast<size_t>(level)])
                    ext.cost += pairCost(*t, ext.choice);
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
        span.arg("mem_terms", static_cast<int>(terms.memRefs.size()));
        span.arg("fixed_terms",
                 static_cast<int>(terms.fixedEdges.size()));
        span.arg("pair_terms", static_cast<int>(terms.pairEdges.size()));
        span.arg("pairs_priced", pairsPriced);
    }
    return result;
}

} // namespace synth
} // namespace ll
