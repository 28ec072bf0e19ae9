/**
 * @file
 * Cache-aware single-conversion service path.
 *
 * serveConversion() is what the compilation service does for one
 * conversion request: consult the shared plan cache, and on a miss run
 * the planner (which statically validates every candidate it builds,
 * codegen::validatePlan) before publishing the plan for every later
 * requester. Nothing here executes a plan on data. The layout engine
 * plans every ConvertLayout op through this same function
 * (engine::EngineOptions::planCache is the `cache` argument), so the
 * engine, the service and the cute path share one plan path.
 *
 * Span: "service.conversion" (cat "service") with an "outcome" arg of
 * cache-hit | cached-rejection | planned | plan-failed.
 */

#ifndef LL_SERVICE_CONVERSION_SERVICE_H
#define LL_SERVICE_CONVERSION_SERVICE_H

#include <memory>
#include <string>

#include "codegen/conversion.h"
#include "service/plan_cache.h"

namespace ll {
namespace service {

struct ConversionOutcome
{
    /** The (possibly shared) plan; null when planning failed. */
    std::shared_ptr<const codegen::ConversionPlan> plan;
    bool fromCache = false;
    /** The failure was served from a memoized InvalidInput entry. */
    bool cachedRejection = false;
    /** Planner failure rendering; empty on success. */
    std::string error;

    bool planned() const { return plan != nullptr; }
};

/**
 * Serve one conversion request against `cache` (nullptr = plan fresh
 * every time, the --no-cache baseline). Never throws on planner
 * trouble: failures come back in the outcome.
 */
ConversionOutcome serveConversion(PlanCache *cache,
                                  const LinearLayout &src,
                                  const LinearLayout &dst, int elemBytes,
                                  const sim::GpuSpec &spec);

/**
 * The post-lookup half of serveConversion: plan, then publish
 * to `cache` under `key` (both may be null — the --no-cache path). The
 * caller has already taken the cache miss; this never performs (or
 * counts) a lookup. The singleflight leader calls this after its
 * stat-free peek() double-check so each request records exactly one
 * cache lookup no matter how the flight resolves.
 */
ConversionOutcome planAndPublish(PlanCache *cache, const PlanKey *key,
                                 const LinearLayout &src,
                                 const LinearLayout &dst, int elemBytes,
                                 const sim::GpuSpec &spec);

} // namespace service
} // namespace ll

#endif // LL_SERVICE_CONVERSION_SERVICE_H
