/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span brackets one call from the benchmark into a layer's public
 * function (layer "sim", function "Machine::run", ...). Spans nest on
 * one thread; each records its parent, the job it belongs to and the
 * benchmark phase it ran in. Nothing is written until the run ends,
 * when the spans are exported as Chrome trace-event JSON and folded
 * into per-function totals with self time (duration minus the time
 * its child spans cover).
 */

#ifndef FBPERF_SPANS_HH
#define FBPERF_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fbperf
{

struct Span
{
    const char *layer = "";
    const char *fn = "";
    double startUs = 0;
    double durUs = 0;
    int parent = -1;
    std::uint64_t job = 0;
    /** Benchmark phase label ("setup", "timed", a pricing pass ...);
     * must point to storage that outlives the tracer. */
    const char *phase = "";
};

/** Per-function totals over a set of spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalUs = 0;
    double selfUs = 0;
};

class Tracer
{
  public:
    /** RAII span: closes on destruction. Inert when tracing is off. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *layer, const char *fn);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tracer = nullptr;
        int _index = -1;
    };

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /** Phase label for spans opened from now on (static storage). */
    void setPhase(const char *phase) { _phase = phase; }
    /** Start a new job: spans opened from now on carry its id. */
    void nextJob() { ++_job; }

    const std::vector<Span> &spans() const { return _spans; }

    /** Totals keyed by "layer.fn" over spans of @p phase. */
    std::map<std::string, SpanTotals> totals(const char *phase) const;

    /** Total duration (us) of spans of @p phase named layer.fn. */
    double sumUs(const char *phase, const char *layer,
                 const char *fn) const;

    /**
     * Write the spans as Chrome trace-event JSON ("X" complete
     * events, one process, one thread). @p meta is a JSON object
     * stored under "otherData". Returns false if the file could not
     * be written.
     */
    bool writeChromeJson(const std::string &path,
                         const std::string &meta) const;

  private:
    double nowUs() const;

    bool _enabled = false;
    const char *_phase = "setup";
    std::uint64_t _job = 0;
    int _open = -1;
    std::vector<Span> _spans;
    std::chrono::steady_clock::time_point _origin =
        std::chrono::steady_clock::now();
};

/** The process-wide tracer. */
Tracer &tracer();

} // namespace fbperf

/** Open a span for the rest of the enclosing scope. */
#define FBPERF_SPAN_CAT2(a, b) a##b
#define FBPERF_SPAN_CAT(a, b) FBPERF_SPAN_CAT2(a, b)
#define FBPERF_SPAN(layer, fn)                                          \
    ::fbperf::Tracer::Scope FBPERF_SPAN_CAT(fbperfSpan_, __LINE__)(      \
        ::fbperf::tracer(), layer, fn)

#endif // FBPERF_SPANS_HH
