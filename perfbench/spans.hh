/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark opens a span around each call it makes into a layer
 * of the simulator. A span keeps its name, its start and end (ns
 * since the recorder was created), the index of the span that was
 * open when it began (its parent) and the id of the pass it belongs
 * to, so all spans of one pass share an id. Spans stay in memory and
 * are written out once, by dump(), when the benchmark ends.
 *
 * Past the buffer cap a span is no longer stored, but it still counts
 * toward the per-name totals, so the self times computed from them
 * stay exact: a span's self time is its duration minus the part its
 * direct children cover (children never overlap on one thread).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    static constexpr uint32_t noParent = ~0u;

    struct Span
    {
        uint32_t name;
        uint32_t parent;   ///< index into spans(), or noParent
        uint32_t run;      ///< pass id shared by the pass's spans
        uint64_t startNs;
        uint64_t endNs;
    };

    struct Totals
    {
        uint64_t count = 0;
        uint64_t totalNs = 0;
        uint64_t childNs = 0;   ///< covered by direct children
        uint64_t selfNs() const { return totalNs - childNs; }
    };

    explicit SpanRecorder(size_t cap);

    /** Intern @p name; the id indexes names() and totals(). */
    uint32_t nameId(const std::string &name);
    void setRun(uint32_t run) { run_ = run; }

    void begin(uint32_t name);
    void end();

    const std::vector<std::string> &names() const { return names_; }
    const Totals &totals(uint32_t name) const { return totals_[name]; }
    const std::vector<Span> &spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

    /** Write every stored span as JSON; false on I/O failure. */
    bool dump(const std::string &path) const;

  private:
    struct Open
    {
        uint32_t name;
        uint32_t index;     ///< slot in spans_, or noParent if dropped
        uint64_t startNs;
        uint64_t childNs;
    };

    uint64_t
    nowNs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    const std::chrono::steady_clock::time_point epoch_;
    const size_t cap_;
    uint32_t run_ = 0;
    uint64_t dropped_ = 0;
    std::vector<std::string> names_;
    std::vector<Totals> totals_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
};

/** Span over a C++ scope; a null recorder makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, uint32_t name) : rec_(rec)
    {
        if (rec_)
            rec_->begin(name);
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
