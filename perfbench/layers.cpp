/**
 * @file
 * Per-layer accounting for the traced run: span self times folded out
 * of the in-memory trace recorder, and registry counter deltas.
 */
#include <algorithm>

#include "perfbench.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace perfbench {

int64_t
SpanTable::drain()
{
    const int64_t dropped = ll::trace::droppedCount();
    std::vector<ll::trace::Event> events = ll::trace::snapshotEvents();
    ll::trace::clear();

    // Spans are RAII scopes, so on one thread they nest properly: walk
    // each thread's events in start order (outer span first on ties)
    // and charge every span's duration to its innermost open ancestor.
    std::sort(events.begin(), events.end(),
              [](const ll::trace::Event &a, const ll::trace::Event &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.tsUs != b.tsUs)
                      return a.tsUs < b.tsUs;
                  return a.durUs > b.durUs;
              });
    struct Open
    {
        const ll::trace::Event *event;
        double childUs;
    };
    std::vector<Open> stack;
    auto close = [&](const Open &open) {
        Row &r = rows_[open.event->name];
        ++r.count;
        r.totalMs += open.event->durUs / 1e3;
        r.selfMs += std::max(0.0, open.event->durUs - open.childUs) / 1e3;
    };
    int tid = -1;
    for (const ll::trace::Event &ev : events) {
        if (ev.tid != tid) {
            for (; !stack.empty(); stack.pop_back())
                close(stack.back());
            tid = ev.tid;
        }
        while (!stack.empty() &&
               stack.back().event->tsUs + stack.back().event->durUs <=
                   ev.tsUs) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty())
            stack.back().childUs += ev.durUs;
        stack.push_back({&ev, 0.0});
    }
    for (; !stack.empty(); stack.pop_back())
        close(stack.back());
    return dropped;
}

SpanTable::Row
SpanTable::row(const std::string &name) const
{
    auto it = rows_.find(name);
    return it == rows_.end() ? Row{} : it->second;
}

double
SpanTable::totalMsWithPrefix(const std::string &prefix) const
{
    double ms = 0.0;
    for (const auto &[name, r] : rows_) {
        if (name.compare(0, prefix.size(), prefix) == 0)
            ms += r.totalMs;
    }
    return ms;
}

std::map<std::string, int64_t>
counters()
{
    return ll::metrics::Registry::instance().counterSnapshot();
}

int64_t
counterDelta(const std::map<std::string, int64_t> &before,
             const std::map<std::string, int64_t> &after,
             const std::string &name)
{
    auto value = [&](const std::map<std::string, int64_t> &m) {
        auto it = m.find(name);
        return it == m.end() ? int64_t(0) : it->second;
    };
    return value(after) - value(before);
}

} // namespace perfbench
