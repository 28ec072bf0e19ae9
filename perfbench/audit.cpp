/**
 * @file
 * The benchmark's output check: oracle audit of every distinct plan a
 * workload produced, the order-independent plan digest, and the
 * anti-vacuity probe that proves the audit can fail.
 */
#include <algorithm>
#include <cstdio>
#include <exception>
#include <random>

#include "check/generators.h"
#include "check/oracle.h"
#include "perfbench.h"
#include "support/trace.h"

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t
fnv1a(const void *data, size_t size, uint64_t h = kFnvOffset)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

std::string
label(const Conversion &c, const ll::codegen::ConversionPlan *plan)
{
    return c.spec.name + " b" + std::to_string(c.elemBytes) + " " +
           (plan != nullptr ? ll::codegen::toString(plan->kind)
                            : std::string("unplanned"));
}

} // namespace

void
Ops::record(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "llbench: failed op: %s\n", what.c_str());
    }
}

void
ConversionSet::add(const ll::LinearLayout &src, const ll::LinearLayout &dst,
                   int elemBytes, const ll::sim::GpuSpec &spec)
{
    uint64_t h = src.structuralHash() * 31 + dst.structuralHash();
    h = h * 31 + static_cast<uint64_t>(elemBytes);
    h = h * 31 + spec.fingerprint();
    auto [lo, hi] = index_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
        const Conversion &c = items_[it->second];
        if (c.elemBytes == elemBytes &&
            c.spec.fingerprint() == spec.fingerprint() && c.src == src &&
            c.dst == dst)
            return;
    }
    index_.emplace(h, items_.size());
    items_.push_back({src, dst, elemBytes, spec});
}

void
auditPlans(const std::vector<AuditItem> &items, Ops &ops)
{
    for (const AuditItem &item : items) {
        const Conversion &c = *item.conversion;
        if (item.plan == nullptr) {
            ops.record(false, "oracle: no plan for " + label(c, nullptr));
            continue;
        }
        bool ok = false;
        std::string detail;
        try {
            ll::trace::Span span("call.check.oracle", "perfbench");
            auto report = ll::check::checkPlan(*item.plan, c.src, c.dst,
                                               c.elemBytes, c.spec);
            ok = report.ok();
            detail = report.detail;
        } catch (const std::exception &e) {
            detail = std::string("oracle threw: ") + e.what();
        }
        ops.record(ok, "oracle: " + label(c, item.plan.get()) + ": " +
                           detail);
    }
}

uint64_t
planDigest(const std::vector<AuditItem> &items)
{
    std::vector<uint64_t> perPlan;
    perPlan.reserve(items.size());
    for (const AuditItem &item : items) {
        const Conversion &c = *item.conversion;
        std::string text = c.src.toString() + "|" + c.dst.toString() +
                           "|" + std::to_string(c.elemBytes) + "|" +
                           c.spec.name + "|" +
                           (item.plan != nullptr
                                ? ll::codegen::describePlan(*item.plan)
                                : std::string("unplanned"));
        perPlan.push_back(fnv1a(text.data(), text.size()));
    }
    std::sort(perPlan.begin(), perPlan.end());
    return fnv1a(perPlan.data(), perPlan.size() * sizeof(uint64_t));
}

bool
auditCatchesInjectedBug()
{
    // A fixed generator seed, so the probe audits the same plan on
    // every run; the first shared-memory plan the bug applies to wins.
    std::mt19937 rng(7);
    for (int attempt = 0; attempt < 256; ++attempt) {
        auto c = ll::check::randomConversionCase(rng);
        Conversion conv{c.src, c.dst, c.elemBytes, c.spec()};
        auto planned = ll::codegen::tryPlanConversion(
            conv.src, conv.dst, conv.elemBytes, conv.spec);
        if (!planned.ok())
            continue;
        ll::codegen::ConversionPlan corrupt = *planned;
        if (!ll::check::injectSwizzleAliasBug(corrupt))
            continue;
        std::fprintf(stderr,
                     "llbench: self-test: auditing one intact and one "
                     "corrupted %s plan (the corrupted one must fail)\n",
                     ll::codegen::toString(corrupt.kind).c_str());
        Ops intact, injected;
        auditPlans({{&conv, std::make_shared<const ll::codegen::ConversionPlan>(
                                std::move(*planned))}},
                   intact);
        auditPlans({{&conv, std::make_shared<const ll::codegen::ConversionPlan>(
                                std::move(corrupt))}},
                   injected);
        return intact.failed == 0 && injected.attempted == 1 &&
               injected.failed == 1;
    }
    std::fprintf(stderr, "llbench: self-test: no shared-memory plan found\n");
    return false;
}

} // namespace perfbench
