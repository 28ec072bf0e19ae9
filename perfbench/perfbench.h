/**
 * @file
 * Shared declarations of the repository benchmark, llbench.
 *
 * llbench runs one named workload against the layout-compiler
 * libraries, calling each layer's public functions from outside, and
 * prints one JSON result line. README.md in this directory explains the
 * workloads and which layer metric should move which end-to-end metric.
 */
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/conversion.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"

namespace perfbench {

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Failed-op accounting. Every timed item, every Function::verify and
 * every oracle audit is one attempted op; a planning failure, an exec
 * failure, a non-Planned outcome, a verify throw, an oracle mismatch or
 * a non-repeating quality number is one failed op.
 */
struct Ops
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Count one op; print `what` to stderr when it failed. */
    void record(bool ok, const std::string &what);
};

/** One (src, dst, elemBytes, spec) conversion a workload produced. */
struct Conversion
{
    ll::LinearLayout src;
    ll::LinearLayout dst;
    int elemBytes = 2;
    ll::sim::GpuSpec spec;
};

/** Distinct conversions in first-seen order. */
class ConversionSet
{
  public:
    /** Add unless an equal conversion is already present. */
    void add(const ll::LinearLayout &src, const ll::LinearLayout &dst,
             int elemBytes, const ll::sim::GpuSpec &spec);
    const std::vector<Conversion> &items() const { return items_; }

  private:
    std::unordered_multimap<uint64_t, size_t> index_;
    std::vector<Conversion> items_;
};

/** A conversion together with the exact plan the workload used. */
struct AuditItem
{
    const Conversion *conversion = nullptr;
    std::shared_ptr<const ll::codegen::ConversionPlan> plan;
};

/**
 * Oracle-audit every item with check::checkPlan (one op each, a
 * missing plan or any mismatch fails it), timing each check under a
 * "call.check.oracle" span.
 */
void auditPlans(const std::vector<AuditItem> &items, Ops &ops);

/** FNV-1a digest over the sorted per-conversion digests of
 *  (layouts, elemBytes, spec, describePlan); order-independent. */
uint64_t planDigest(const std::vector<AuditItem> &items);

/**
 * Anti-vacuity probe: plan a shared-memory conversion, corrupt it with
 * check::injectSwizzleAliasBug, and confirm auditPlans reports exactly
 * that op as failed while the intact plan passes. Returns true when the
 * output check caught the bug.
 */
bool auditCatchesInjectedBug();

/** What one run asks for (the command-line contract). */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct RunResult
{
    Ops ops;
    /** End-to-end metrics (untraced run) or per-layer ones (traced). */
    std::vector<Metric> metrics;
};

/** The workload names runWorkload accepts. */
const std::vector<std::string> &workloadNames();

/** Run one workload end to end: set up, time, check outputs, report. */
RunResult runWorkload(const RunConfig &config);

/**
 * Span aggregation over the trace recorder: per span name, the count,
 * inclusive time and self time (duration minus the time its direct
 * children cover on the same thread).
 */
class SpanTable
{
  public:
    struct Row
    {
        int64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /** Fold every recorded event into the table, then clear the
     *  recorder. Returns the events the recorder dropped since the
     *  last drain (0 when the table is complete). */
    int64_t drain();
    const std::map<std::string, Row> &rows() const { return rows_; }
    /** Row for `name`, zero when the span never fired. */
    Row row(const std::string &name) const;
    /** Sum of inclusive time over spans whose name starts with
     *  `prefix`. */
    double totalMsWithPrefix(const std::string &prefix) const;

  private:
    std::map<std::string, Row> rows_;
};

/** Current registry counters (metrics::Registry::counterSnapshot). */
std::map<std::string, int64_t> counters();

/** after[name] - before[name], 0 for absent names. */
int64_t counterDelta(const std::map<std::string, int64_t> &before,
                     const std::map<std::string, int64_t> &after,
                     const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
