/**
 * @file
 * The three benchmark workloads and the run loop that times them.
 *
 * fig9-cold and fig9-synth run the 92 (kernel, size, platform) cases of
 * the Fig. 9 suite one at a time in a closed loop; serve-mixed drives a
 * seeded request stream through CompileService::run on a worker pool.
 * README.md records why each workload exists and which layer it
 * stresses.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "check/generators.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "layout/dims.h"
#include "legacy/legacy_cost.h"
#include "perfbench.h"
#include "service/compile_service.h"
#include "service/conversion_service.h"
#include "service/interner.h"
#include "service/plan_cache.h"
#include "support/trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using ll::engine::EngineOptions;
using ll::engine::EngineStats;
using ll::ir::Function;
using ll::sim::GpuSpec;

constexpr int kNumWarps = 4;
/** Set-up repetitions per untraced run; setup_s is their median. */
constexpr int kSetups = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Regularized incomplete beta function I_x(a, b), by its continued
 *  fraction (Lentz's method). */
double
incompleteBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    if (x > (a + 1.0) / (a + b + 2.0))
        return 1.0 - incompleteBeta(b, a, 1.0 - x);
    const double tiny = 1e-300;
    auto clampTiny = [&](double v) { return std::fabs(v) < tiny ? tiny : v; };
    double c = 1.0;
    double d = 1.0 / clampTiny(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 100000; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
        d = 1.0 / clampTiny(1.0 + aa * d);
        c = clampTiny(1.0 + aa / c);
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
        d = 1.0 / clampTiny(1.0 + aa * d);
        c = clampTiny(1.0 + aa / c);
        h *= d * c;
        if (std::fabs(d * c - 1.0) < 1e-14)
            break;
    }
    const double front =
        std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                 a * std::log(x) + b * std::log1p(-x));
    return front * h / a;
}

/**
 * Harrell-Davis estimate of the p-th percentile of sorted samples: a
 * Beta-weighted mean of the order statistics around rank p. fig9 items
 * repeat a fixed set of cases, so their latencies cluster by case; a
 * single order statistic jumps between neighbouring clusters with noise,
 * while this estimate moves smoothly.
 */
double
percentile(const std::vector<double> &sorted, double p)
{
    const size_t n = sorted.size();
    if (n == 0)
        return 0.0;
    const double q = p / 100.0;
    const double a = q * static_cast<double>(n + 1);
    const double b = (1.0 - q) * static_cast<double>(n + 1);
    // The Beta weights vanish a few standard deviations from q.
    const double sd = std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1.0)));
    const double dn = static_cast<double>(n);
    const size_t lo = static_cast<size_t>(std::max(0.0, std::floor((q - 12 * sd) * dn)));
    const size_t hi = static_cast<size_t>(std::min(dn, std::ceil((q + 12 * sd) * dn)));
    const double first = incompleteBeta(a, b, static_cast<double>(lo) / dn);
    double prev = first;
    double sum = 0.0;
    for (size_t i = lo + 1; i <= hi; ++i) {
        const double cdf = incompleteBeta(a, b, static_cast<double>(i) / dn);
        sum += (cdf - prev) * sorted[i - 1];
        prev = cdf;
    }
    return prev > first ? sum / (prev - first) : sorted[std::min(hi, n) - 1];
}

/** The Fig. 9 platforms, in the paper's column order. */
const std::vector<GpuSpec> &
platforms()
{
    static const std::vector<GpuSpec> specs = {
        GpuSpec::rtx4090(), GpuSpec::gh200(), GpuSpec::mi250()};
    return specs;
}

const char *const kPlatformKeys[] = {"rtx4090", "gh200", "mi250"};

int
platformIndex(const GpuSpec &spec)
{
    for (size_t p = 0; p < platforms().size(); ++p) {
        if (platforms()[p].fingerprint() == spec.fingerprint())
            return static_cast<int>(p);
    }
    return -1;
}

/** The suite's platform rule (paper Section 6.2): TMA kernels run only
 *  where TMA exists, large-shared kernels skip small-shared GPUs. */
bool
kernelRunsOn(const ll::kernels::KernelSpec &k, const GpuSpec &spec)
{
    if (k.needsTma && !spec.hasTma)
        return false;
    if (k.needsLargeShared && spec.sharedMemPerCta < 128 * 1024)
        return false;
    return true;
}

int
survivingConverts(const Function &f)
{
    return f.countOps(ll::ir::OpKind::ConvertLayout);
}

/** Add the engine's view of every surviving conversion in `f`: the
 *  source layout, the destination in the source's output-dim order,
 *  and the result element width — the key it plans and caches under. */
void
collectConversions(const Function &f, const GpuSpec &spec,
                   ConversionSet &set)
{
    for (int i = 0; i < f.numOps(); ++i) {
        const ll::ir::Op &o = f.op(i);
        if (o.erased || o.kind != ll::ir::OpKind::ConvertLayout)
            continue;
        const auto &have = f.value(o.operands[0]).layout;
        const auto &want = f.value(o.results[0]).layout;
        if (!have || !want)
            continue;
        const auto &type = f.value(o.results[0]).type;
        const int elemBytes = std::max(1, ll::ir::bitWidth(type.dtype) / 8);
        set.add(*have, want->transposeOuts(have->getOutDimNames()),
                elemBytes, spec);
    }
}

/** One priced item for the quality metrics and the per-case rows. */
struct Priced
{
    std::string name;
    int platform = 0;
    double linear = 0.0;
    double legacy = 0.0;
    /** Kernel cases get a per-case row; single conversions do not. */
    bool row = false;
};

Priced
price(const std::string &name, const Function &f, const GpuSpec &spec,
      bool row)
{
    Priced p;
    p.name = name;
    p.platform = platformIndex(spec);
    p.row = row;
    {
        ll::trace::Span span("call.cost.estimate", "perfbench");
        p.linear = ll::engine::estimateKernelCost(f, spec, kNumWarps).cycles;
    }
    {
        ll::trace::Span span("call.legacy.estimate", "perfbench");
        p.legacy =
            ll::legacy::estimateLegacyKernelCost(f, spec, kNumWarps).cycles;
    }
    return p;
}

double
speedupOf(const Priced &p)
{
    return p.legacy / std::max(p.linear, 1.0);
}

/** A plan cache with its own interner, so no interned layout carries
 *  over from earlier work through the process-global interner. */
struct FreshCache
{
    ll::service::LayoutInterner interner;
    ll::service::PlanCache cache{config(interner)};

    static ll::service::PlanCache::Config
    config(ll::service::LayoutInterner &interner)
    {
        ll::service::PlanCache::Config c;
        c.interner = &interner;
        return c;
    }
};

/** What the output check hands back to the reporting code. */
struct Outputs
{
    /** Items in a canonical (seed-independent) order. */
    std::vector<Priced> priced;
    /** ConvertLayout ops left after cleanup, summed over one pass. */
    int64_t convertsSurviving = 0;
    /** The exact plans the workload used, one per distinct conversion. */
    std::vector<AuditItem> plans;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the seeded inputs and warm up; replaces earlier state. */
    virtual void setup(uint64_t seed) = 0;
    /** One timed pass over every item; appends per-item latencies. */
    virtual void runPass(std::vector<double> &latencyMs, Ops &ops) = 0;
    /** After timing: verify compiled functions, gather the distinct
     *  conversions and their exact plans, audit them, price items. The
     *  returned plans point into the workload's conversion set. */
    virtual Outputs check(Ops &ops) = 0;

  protected:
    /** Distinct conversions seen by the last check(). */
    ConversionSet conversions_;
};

// ---------------------------------------------------------------------
// fig9-cold / fig9-synth

class Fig9Workload : public Workload
{
  public:
    explicit Fig9Workload(bool synth) : synth_(synth) {}

    void
    setup(uint64_t seed) override
    {
        suite_ = ll::kernels::allKernels();
        cases_.clear();
        for (size_t k = 0; k < suite_.size(); ++k) {
            for (size_t p = 0; p < platforms().size(); ++p) {
                if (!kernelRunsOn(suite_[k], platforms()[p]))
                    continue;
                for (int32_t size : suite_[k].sizes) {
                    // Build once up front so a broken kernel fails
                    // set-up, not the timed loop.
                    suite_[k].build(size).verify();
                    cases_.push_back({k, size, static_cast<int>(p),
                                      cases_.size()});
                }
            }
        }
        order_.seed(seed);
        first_.assign(cases_.size(), {});
        compiled_.assign(cases_.size(), Function(""));
        passes_ = 0;

        if (synth_) {
            // Fill one plan cache per platform with a cold pass over
            // every case; the timed passes then run warm.
            caches_ = std::make_unique<FreshCache[]>(platforms().size());
            for (const Case &c : cases_) {
                Function f = suite_[c.kernel].build(c.size);
                ll::engine::LayoutEngine(options(c.platform)).run(f);
            }
            return;
        }
        // Warm-up: every kernel at its smallest size on GH200.
        for (size_t k = 0; k < suite_.size(); ++k) {
            if (!kernelRunsOn(suite_[k], platforms()[1]))
                continue;
            Function f = suite_[k].build(suite_[k].sizes[0]);
            ll::engine::LayoutEngine(options(1)).run(f);
            price(suite_[k].name, f, platforms()[1], false);
        }
    }

    void
    runPass(std::vector<double> &latencyMs, Ops &ops) override
    {
        std::shuffle(cases_.begin(), cases_.end(), order_);
        for (const Case &c : cases_) {
            const auto &k = suite_[c.kernel];
            const GpuSpec &spec = platforms()[static_cast<size_t>(c.platform)];
            const std::string name = k.name + "@" + std::to_string(c.size) +
                                     " " + kPlatformKeys[c.platform];
            const auto t0 = Clock::now();
            Result r;
            bool ok = true;
            std::string error;
            try {
                Function f("");
                {
                    ll::trace::Span span("call.ir.build", "perfbench");
                    f = k.build(c.size);
                }
                EngineStats stats;
                {
                    ll::trace::Span span("call.engine.run", "perfbench");
                    stats = ll::engine::LayoutEngine(options(c.platform)).run(f);
                }
                r.priced = price(name, f, spec, true);
                r.surviving = survivingConverts(f);
                ok = stats.planFailures == 0 && stats.execFailures == 0;
                if (!ok)
                    error = std::to_string(stats.planFailures) +
                            " plan / " + std::to_string(stats.execFailures) +
                            " exec failure(s)";
                compiled_[c.canonical] = std::move(f);
            } catch (const std::exception &e) {
                ok = false;
                error = e.what();
            }
            latencyMs.push_back(secondsSince(t0) * 1e3);

            // The quality numbers are deterministic: every pass must
            // reproduce the first bit for bit.
            Result &first = first_[c.canonical];
            if (passes_ == 0) {
                first = r;
            } else if (ok && (r.priced.linear != first.priced.linear ||
                              r.priced.legacy != first.priced.legacy ||
                              r.surviving != first.surviving)) {
                ok = false;
                error = "modeled cycles differ from the first pass";
            }
            ops.record(ok, name + ": " + error);
        }
        ++passes_;
    }

    Outputs
    check(Ops &ops) override
    {
        Outputs out;
        conversions_ = ConversionSet();
        for (const Case &c : sortedCases()) {
            const Function &f = compiled_[c.canonical];
            bool ok = true;
            std::string error;
            try {
                f.verify();
            } catch (const std::exception &e) {
                ok = false;
                error = e.what();
            }
            ops.record(ok, "verify " + first_[c.canonical].priced.name +
                               ": " + error);
            collectConversions(f, platforms()[static_cast<size_t>(c.platform)],
                               conversions_);
            out.priced.push_back(first_[c.canonical].priced);
            out.convertsSurviving += first_[c.canonical].surviving;
        }
        // Planning is deterministic, so a fresh plan is the one the
        // engine used, with or without a cache.
        for (const Conversion &conv : conversions_.items()) {
            auto plan = ll::codegen::tryPlanConversion(
                conv.src, conv.dst, conv.elemBytes, conv.spec);
            out.plans.push_back(
                {&conv, plan.ok() ? std::make_shared<const ll::codegen::ConversionPlan>(
                                        std::move(*plan))
                                  : nullptr});
        }
        auditPlans(out.plans, ops);
        return out;
    }

  private:
    struct Case
    {
        size_t kernel;
        int32_t size;
        int platform;
        /** Index in suite order, so outputs do not depend on the seed. */
        size_t canonical;
    };
    struct Result
    {
        Priced priced;
        int surviving = 0;
    };

    EngineOptions
    options(int platform)
    {
        EngineOptions o;
        o.spec = platforms()[static_cast<size_t>(platform)];
        o.numWarps = kNumWarps;
        if (synth_) {
            o.synthesizeLayouts = true;
            o.planCache = &caches_[static_cast<size_t>(platform)].cache;
        }
        return o;
    }

    std::vector<Case>
    sortedCases() const
    {
        std::vector<Case> sorted = cases_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Case &a, const Case &b) {
                      return a.canonical < b.canonical;
                  });
        return sorted;
    }

    bool synth_;
    /** Seeded by the run's seed; draws a new case order every pass. */
    std::mt19937_64 order_;
    std::vector<ll::kernels::KernelSpec> suite_;
    std::vector<Case> cases_;
    std::vector<Result> first_;
    /** The last pass's compiled functions, by canonical index. */
    std::vector<Function> compiled_;
    int passes_ = 0;
    /** fig9-synth: one plan cache per platform, filled by set-up. */
    std::unique_ptr<FreshCache[]> caches_;
};

// ---------------------------------------------------------------------
// serve-mixed

class ServeWorkload : public Workload
{
  public:
    void
    setup(uint64_t seed) override
    {
        // 1500 distinct random conversions across the three platforms
        // (<= 4096 elements each) plus every Fig. 9 kernel at its
        // smallest size on GH200, each offered 4 times. The pool comes
        // from a fixed generator seed, so every run serves the same
        // work; the run's seed drives the shuffles (a new stream order
        // every pass), which decide which offer of a key arrives cold
        // and which requests overlap on the workers.
        constexpr size_t kConversions = 1500;
        constexpr int kOffers = 4;
        constexpr uint32_t kPoolSeed = 20260;
        std::mt19937 rng(kPoolSeed);
        ConversionSet distinct;
        while (distinct.items().size() < kConversions) {
            auto c = ll::check::randomConversionCase(rng);
            distinct.add(c.src, c.dst, c.elemBytes, c.spec());
        }
        requests_ = distinct;
        std::vector<ll::service::CompileRequest> unique;
        for (size_t i = 0; i < requests_.items().size(); ++i) {
            const Conversion &c = requests_.items()[i];
            auto req = std::make_shared<ll::service::ConversionRequest>();
            req->src = c.src;
            req->dst = c.dst;
            req->elemBytes = c.elemBytes;
            req->spec = c.spec;
            unique.push_back({"cvt" + std::to_string(i), {}, std::move(req)});
        }
        kernels_.clear();
        for (auto &k : ll::kernels::allKernels()) {
            if (!kernelRunsOn(k, platforms()[1]))
                continue;
            const int32_t size = k.sizes[0];
            k.build(size).verify();
            unique.push_back({k.name + "@" + std::to_string(size),
                              [build = k.build, size] { return build(size); },
                              nullptr});
            kernels_.push_back(unique.back());
        }
        stream_.clear();
        for (int offer = 0; offer < kOffers; ++offer)
            stream_.insert(stream_.end(), unique.begin(), unique.end());
        order_.seed(seed);
        std::shuffle(stream_.begin(), stream_.end(), order_);
        firstSurviving_ = -1;

        // Warm-up: the first 256 requests against a throwaway cache.
        std::vector<ll::service::CompileRequest> warm(
            stream_.begin(), stream_.begin() + 256);
        freshCache();
        service().run(warm);
    }

    void
    runPass(std::vector<double> &latencyMs, Ops &ops) override
    {
        freshCache();
        std::shuffle(stream_.begin(), stream_.end(), order_);
        ll::service::ServiceReport report;
        {
            ll::trace::Span span("call.service.run", "perfbench");
            report = service().run(stream_);
        }
        int64_t surviving = 0;
        for (const auto &resp : report.responses) {
            latencyMs.push_back(resp.latencyUs / 1e3);
            ops.record(resp.ok &&
                           resp.outcome == ll::service::RequestOutcome::Planned,
                       resp.name + ": " + ll::service::toString(resp.outcome) +
                           " " + resp.error);
            surviving +=
                resp.stats.convertsInserted - resp.stats.convertsEliminated;
        }
        if (firstSurviving_ < 0)
            firstSurviving_ = surviving;
        ops.record(surviving == firstSurviving_,
                   "surviving converts differ from the first pass");
    }

    Outputs
    check(Ops &ops) override
    {
        Outputs out;
        conversions_ = ConversionSet();
        const GpuSpec &gh200 = platforms()[1];
        EngineOptions engine = engineOptions();
        engine.planCache = &cache_->cache;
        // The service discards the functions it compiles; recompile the
        // kernel requests against the pass's cache (all hits, identical
        // output) to verify and price them.
        for (const auto &req : kernels_) {
            bool ok = true;
            std::string error;
            try {
                Function f = req.build();
                ll::engine::LayoutEngine(engine).run(f);
                f.verify();
                collectConversions(f, gh200, conversions_);
                out.priced.push_back(price(req.name, f, gh200, true));
                out.convertsSurviving += survivingConverts(f);
            } catch (const std::exception &e) {
                ok = false;
                error = e.what();
            }
            ops.record(ok, "verify " + req.name + ": " + error);
        }
        // Each conversion request is priced as a one-op kernel.
        for (size_t i = 0; i < requests_.items().size(); ++i) {
            const Conversion &c = requests_.items()[i];
            conversions_.add(c.src, c.dst, c.elemBytes, c.spec);
            Function f("cvt" + std::to_string(i));
            ll::ir::TensorType type;
            type.dtype = c.elemBytes == 1   ? ll::ir::DType::I8
                         : c.elemBytes == 2 ? ll::ir::DType::F16
                                            : ll::ir::DType::F32;
            for (int d = 0; d < c.src.getNumOutDims(); ++d)
                type.shape.push_back(c.src.getOutDimSize(ll::dims::out(d)));
            const int v = f.constant(type);
            f.value(v).layout = c.src;
            f.convertLayout(v, c.dst);
            out.priced.push_back(price(f.name(), f, c.spec, false));
        }
        // Audit the exact plan the cache holds for every conversion.
        for (const Conversion &conv : conversions_.items()) {
            auto outcome = ll::service::serveConversion(
                &cache_->cache, conv.src, conv.dst, conv.elemBytes, conv.spec);
            out.plans.push_back(
                {&conv, outcome.planned() ? outcome.plan : nullptr});
        }
        auditPlans(out.plans, ops);
        return out;
    }

  private:
    static EngineOptions
    engineOptions()
    {
        EngineOptions o;
        o.spec = platforms()[1];
        o.numWarps = kNumWarps;
        return o;
    }

    ll::service::CompileService
    service()
    {
        ll::service::CompileService::Options o;
        o.threads = static_cast<int>(std::clamp(
            std::thread::hardware_concurrency(), 1u, 4u));
        o.cache = &cache_->cache;
        o.engine = engineOptions();
        return ll::service::CompileService(o);
    }

    /** One shared plan cache per pass, so every pass sees the same
     *  cold-then-warm sequence. */
    void
    freshCache()
    {
        cache_.reset();
        cache_.emplace();
    }

    /** Seeded by the run's seed; draws a new stream order every pass. */
    std::mt19937_64 order_;
    ConversionSet requests_;
    std::vector<ll::service::CompileRequest> kernels_;
    std::vector<ll::service::CompileRequest> stream_;
    int64_t firstSurviving_ = -1;
    std::optional<FreshCache> cache_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fig9-cold")
        return std::make_unique<Fig9Workload>(false);
    if (name == "fig9-synth")
        return std::make_unique<Fig9Workload>(true);
    if (name == "serve-mixed")
        return std::make_unique<ServeWorkload>();
    return nullptr;
}

/** Run whole passes until `seconds` have elapsed (at least one).
 *  Returns the wall time of each pass. */
std::vector<double>
timePasses(Workload &w, double seconds, std::vector<double> &latencyMs,
           Ops &ops, const std::function<void()> &afterPass = {})
{
    std::vector<double> walls;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        w.runPass(latencyMs, ops);
        walls.push_back(secondsSince(t0));
        // Hand freed heap back to the OS, so every pass starts from the
        // same resident baseline: the worker threads' malloc arenas
        // otherwise keep freed pages, and peak_rss_mb would measure the
        // allocator's history instead of the pass.
        malloc_trim(0);
        if (afterPass)
            afterPass();
    } while (secondsSince(start) < seconds);
    return walls;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

void
qualityMetrics(const Outputs &out, std::vector<Metric> &metrics)
{
    double logCycles = 0.0;
    double minSpeedup = out.priced.empty() ? 0.0 : speedupOf(out.priced[0]);
    std::vector<double> logSpeedup(platforms().size(), 0.0);
    std::vector<int> count(platforms().size(), 0);
    for (const Priced &p : out.priced) {
        logCycles += std::log(std::max(p.linear, 1.0));
        const double s = speedupOf(p);
        minSpeedup = std::min(minSpeedup, s);
        if (p.platform >= 0) {
            logSpeedup[static_cast<size_t>(p.platform)] += std::log(s);
            ++count[static_cast<size_t>(p.platform)];
        }
    }
    const double n = std::max<double>(1.0, static_cast<double>(out.priced.size()));
    metrics.push_back({"modeled_cycles.geomean", std::exp(logCycles / n),
                       "cycles"});
    metrics.push_back({"converts_surviving",
                       static_cast<double>(out.convertsSurviving), "count"});
    for (size_t p = 0; p < platforms().size(); ++p) {
        metrics.push_back(
            {std::string("speedup.geomean.") + kPlatformKeys[p],
             std::exp(logSpeedup[p] / std::max(1, count[p])), "x"});
    }
    metrics.push_back({"speedup.min", minSpeedup, "x"});
}

void
printOutputs(const std::string &workload, const Outputs &out)
{
    for (const Priced &p : out.priced) {
        if (!p.row)
            continue;
        std::printf("case %-28s %-8s linear_cycles=%.1f legacy_cycles=%.1f "
                    "speedup=%.4f\n",
                    p.name.c_str(), kPlatformKeys[p.platform], p.linear,
                    p.legacy, speedupOf(p));
    }
    std::printf("plan_digest %s fnv1a64=%016llx over %zu distinct "
                "conversion(s)\n",
                workload.c_str(),
                static_cast<unsigned long long>(planDigest(out.plans)),
                out.plans.size());
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

RunResult
runUntraced(Workload &w, const RunConfig &config)
{
    RunResult result;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        w.setup(config.seed);
        setups.push_back(secondsSince(t0));
    }
    std::vector<double> latencyMs;
    const std::vector<double> walls =
        timePasses(w, config.seconds, latencyMs, result.ops);
    const double timedS = sum(walls);
    // Every pass does the same work; the median pass rate shrugs off a
    // pass slowed by a noisy neighbour.
    const double itemsPerPass =
        static_cast<double>(latencyMs.size()) / static_cast<double>(walls.size());
    std::vector<double> rates;
    for (double wall : walls)
        rates.push_back(itemsPerPass / wall);

    Outputs out = w.check(result.ops);
    printOutputs(config.workload, out);

    std::sort(latencyMs.begin(), latencyMs.end());
    std::printf("timed %zu item(s) in %zu pass(es), %.3f s; pass walls (s):",
                latencyMs.size(), walls.size(), timedS);
    for (double wall : walls)
        std::printf(" %.3f", wall);
    std::printf("\n");
    auto &m = result.metrics;
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"items_per_s", median(rates), "1/s"});
    m.push_back({"latency_ms.p50", percentile(latencyMs, 50), "ms"});
    m.push_back({"latency_ms.p90", percentile(latencyMs, 90), "ms"});
    m.push_back({"latency_ms.p99", percentile(latencyMs, 99), "ms"});
    qualityMetrics(out, m);
    m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    return result;
}

/** The registry counters reported per pass in the traced run. */
const char *const kCounters[] = {
    "engine.converts_planned",
    "engine.smoke.cache_hits",
    "plan.attempts",
    "plan.kind.shared-memory",
    "plan.kind.shared-scalar",
    "plan.shared.candidates",
    "plan.shared.cta_rejected",
    "exec.shared.runs",
    "exec.shared.bytes_moved",
    "exec.shared.wavefronts",
    "exec.shared.lanes_masked",
    "synth.runs",
    "synth.assignments_evaluated",
    "synth.chose_synthesized",
    "synth.converts_eliminated",
    "service.plan_cache.hits",
    "service.plan_cache.misses",
    "service.plan_cache.inserts",
    "service.plan_cache.evictions",
    "service.intern.hits",
    "service.intern.misses",
    "service.singleflight.leader",
    "service.singleflight.follower",
};

/** Program spans whose per-pass self time is reported. */
const char *const kSelfSpans[] = {
    "engine.assign",
    "engine.cleanup",
    "engine.plan-conversions",
    "convert.demotion-iter",
    "plan.shared.candidate",
    "plan.rung.shared-padded",
    "swizzle.optimal",
    "exec.shared.round-trip",
    "synth.search",
    "synth.evaluate",
    "service.request",
    "service.conversion.plan",
};

/** The benchmark's own spans around calls made in the timed passes. */
const char *const kPassCalls[] = {
    "call.ir.build",
    "call.engine.run",
    "call.cost.estimate",
    "call.legacy.estimate",
    "call.service.run",
};

/** Spans around the replays and the audit after the timed passes. */
const char *const kReplayCalls[] = {
    "call.codegen.plan",
    "call.codegen.smoke",
    "call.check.oracle",
};

void
printTable(const char *title, const SpanTable &table, double passes)
{
    std::vector<std::pair<std::string, SpanTable::Row>> rows(
        table.rows().begin(), table.rows().end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfMs > b.second.selfMs;
    });
    std::printf("%s (per pass over %.0f pass(es))\n", title, passes);
    std::printf("  %-32s %12s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, r] : rows) {
        std::printf("  %-32s %12.1f %12.3f %12.3f\n", name.c_str(),
                    static_cast<double>(r.count) / passes, r.totalMs / passes,
                    r.selfMs / passes);
    }
}

RunResult
runTraced(Workload &w, const RunConfig &config)
{
    RunResult result;
    w.setup(config.seed);

    // Untraced passes first (half the budget), then traced passes: the
    // median wall difference is the tracing overhead.
    std::vector<double> latencyMs;
    const std::vector<double> untraced =
        timePasses(w, config.seconds / 2, latencyMs, result.ops);

    ll::trace::clear();
    ll::trace::setEnabled(true);
    SpanTable passes;
    int64_t dropped = 0;
    const auto before = counters();
    const std::vector<double> traced =
        timePasses(w, config.seconds / 2, latencyMs, result.ops,
                   [&] { dropped += passes.drain(); });
    const auto after = counters();

    // After the timed passes: audit (call.check.oracle), then replay
    // the planner and the smoke executor over the distinct conversions.
    SpanTable replay;
    Outputs out = w.check(result.ops);
    for (const AuditItem &item : out.plans) {
        const Conversion &c = *item.conversion;
        {
            ll::trace::Span span("call.codegen.plan", "perfbench");
            auto plan = ll::codegen::tryPlanConversion(c.src, c.dst,
                                                       c.elemBytes, c.spec);
            result.ops.record(plan.ok(),
                              "replay plan: " + (plan.ok()
                                                     ? std::string()
                                                     : plan.diag().toString()));
        }
        if (item.plan != nullptr) {
            ll::trace::Span span("call.codegen.smoke", "perfbench");
            auto fail = ll::codegen::smokeExecutePlan(*item.plan, c.src, c.dst,
                                                      c.elemBytes, c.spec);
            result.ops.record(!fail.has_value(), "replay smoke execution");
        }
    }
    dropped += replay.drain();
    ll::trace::setEnabled(false);

    const double n = static_cast<double>(traced.size());
    result.ops.record(dropped == 0, "trace dropped " + std::to_string(dropped) +
                                        " event(s); layer table refused");
    if (dropped == 0) {
        printTable("layer table: timed passes", passes, n);
        printTable("layer table: replays and audit", replay, 1.0);
    }

    auto &m = result.metrics;
    for (const char *name : kPassCalls)
        m.push_back({std::string(name) + ".ms", passes.row(name).totalMs / n,
                     "ms"});
    for (const char *name : kReplayCalls)
        m.push_back({std::string(name) + ".ms", replay.row(name).totalMs, "ms"});
    for (const char *name : kSelfSpans)
        m.push_back({"span." + std::string(name) + ".self_ms",
                     passes.row(name).selfMs / n, "ms"});
    for (const char *name : kCounters) {
        const bool bytes = std::string(name) == "exec.shared.bytes_moved";
        m.push_back({name,
                     static_cast<double>(counterDelta(before, after, name)) / n,
                     bytes ? "bytes" : "count"});
    }
    const double attempts = counterDelta(before, after, "plan.attempts");
    m.push_back({"plan.useful_ratio",
                 attempts > 0 ? counterDelta(before, after,
                                             "engine.converts_planned") /
                                    attempts
                              : 0.0,
                 "ratio"});
    const double lookups =
        counterDelta(before, after, "service.plan_cache.hits") +
        counterDelta(before, after, "service.plan_cache.misses");
    m.push_back({"plan_cache.lookups", lookups / n, "count"});
    m.push_back({"plan_cache.hit_ratio",
                 lookups > 0
                     ? counterDelta(before, after, "service.plan_cache.hits") /
                           lookups
                     : 0.0,
                 "ratio"});
    m.push_back({"trace.passes", n, "count"});
    m.push_back({"trace.dropped_events", static_cast<double>(dropped), "count"});
    m.push_back({"trace.call_coverage",
                 passes.totalMsWithPrefix("call.") / (sum(traced) * 1e3),
                 "ratio"});
    m.push_back({"trace.overhead_ms",
                 (median(traced) - median(untraced)) * 1e3, "ms"});
    return result;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig9-cold", "fig9-synth",
                                                   "serve-mixed"};
    return names;
}

RunResult
runWorkload(const RunConfig &config)
{
    std::unique_ptr<Workload> w = makeWorkload(config.workload);
    RunResult result = config.trace ? runTraced(*w, config)
                                    : runUntraced(*w, config);
    result.ops.record(auditCatchesInjectedBug(),
                      "self-test: the oracle audit missed an injected "
                      "swizzle-alias bug");
    return result;
}

} // namespace perfbench
