/**
 * @file
 * llbench: the repository benchmark.
 *
 *   llbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   llbench --self-test
 *
 * Prints per-case rows, the plan digest and (traced runs) the layer
 * table, then as its last line one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * Exit status: 0 when the run completed (the JSON says whether the
 * outputs were correct), 1 when the self-test fails, 2 on bad usage.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

int
usage(const char *error)
{
    std::fprintf(stderr,
                 "llbench: %s\n"
                 "usage: llbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       llbench --self-test\n"
                 "workloads:",
                 error);
    for (const auto &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size() &&
           std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig config;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            const bool caught = perfbench::auditCatchesInjectedBug();
            std::printf("self-test: injected swizzle-alias bug %s\n",
                        caught ? "reported as a failed op" : "NOT caught");
            return caught ? 0 : 1;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            config.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed" && parseNumber(value, number) &&
                   number >= 0 && number == std::floor(number)) {
            config.seed = static_cast<uint64_t>(number);
        } else if (flag == "--seconds" && parseNumber(value, number) &&
                   number > 0 && number <= 600) {
            config.seconds = number;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            config.trace = value == "1";
        } else {
            return usage(("bad argument " + flag + " " + value).c_str());
        }
    }
    bool known = false;
    for (const auto &name : perfbench::workloadNames())
        known = known || name == config.workload;
    if (!haveWorkload || !known)
        return usage("unknown or missing --workload");

    perfbench::RunResult result;
    try {
        result = perfbench::runWorkload(config);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "llbench: %s aborted: %s\n",
                     config.workload.c_str(), e.what());
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += result.ops.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.ops.attempted);
    json += ", \"failed\": " + std::to_string(result.ops.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const auto &m = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
