#include "spans.hh"

#include <cstdio>
#include <fstream>

namespace fbperf
{

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - _origin)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *layer, const char *fn)
{
    if (!tracer._enabled)
        return;
    _tracer = &tracer;
    _index = static_cast<int>(tracer._spans.size());
    Span s;
    s.layer = layer;
    s.fn = fn;
    s.parent = tracer._open;
    s.job = tracer._job;
    s.phase = tracer._phase;
    tracer._spans.push_back(s);
    tracer._open = _index;
    // Read the clock last so the span excludes its own bookkeeping.
    tracer._spans[static_cast<std::size_t>(_index)].startUs =
        tracer.nowUs();
}

Tracer::Scope::~Scope()
{
    if (_tracer == nullptr)
        return;
    const double end = _tracer->nowUs();
    Span &s = _tracer->_spans[static_cast<std::size_t>(_index)];
    s.durUs = end - s.startUs;
    _tracer->_open = s.parent;
}

std::map<std::string, SpanTotals>
Tracer::totals(const char *phase) const
{
    // Spans nest strictly on one thread, so the time a span's children
    // cover is the sum of its direct children's durations.
    std::vector<double> childUs(_spans.size(), 0.0);
    for (const auto &s : _spans)
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] += s.durUs;
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        if (std::string_view(s.phase) != phase)
            continue;
        auto &t = out[std::string(s.layer) + "." + s.fn];
        ++t.count;
        t.totalUs += s.durUs;
        t.selfUs += s.durUs - childUs[i];
    }
    return out;
}

double
Tracer::sumUs(const char *phase, const char *layer, const char *fn) const
{
    double total = 0;
    for (const auto &s : _spans)
        if (std::string_view(s.phase) == phase &&
            std::string_view(s.layer) == layer &&
            std::string_view(s.fn) == fn)
            total += s.durUs;
    return total;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &meta) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << meta
        << ",\n\"traceEvents\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                      "\"args\": {\"id\": %zu, \"parent\": %d, \"job\": "
                      "%llu, \"phase\": \"%s\"}}%s\n",
                      s.fn, s.layer, s.startUs, s.durUs, i, s.parent,
                      static_cast<unsigned long long>(s.job),
                      s.phase,
                      i + 1 < _spans.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace fbperf
