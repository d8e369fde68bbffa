#include "spans.hh"

#include <fstream>

#include "obs/json.hh"

namespace perfbench {

SpanRecorder::SpanRecorder(size_t cap)
    : epoch_(std::chrono::steady_clock::now()), cap_(cap)
{
    spans_.reserve(cap);
}

uint32_t
SpanRecorder::nameId(const std::string &name)
{
    for (uint32_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return i;
    }
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<uint32_t>(names_.size() - 1);
}

void
SpanRecorder::begin(uint32_t name)
{
    const uint64_t start = nowNs();
    uint32_t index = noParent;
    if (spans_.size() < cap_) {
        const uint32_t parent =
            stack_.empty() ? noParent : stack_.back().index;
        index = static_cast<uint32_t>(spans_.size());
        spans_.push_back({name, parent, run_, start, start});
    } else {
        ++dropped_;
    }
    stack_.push_back({name, index, start, 0});
}

void
SpanRecorder::end()
{
    const uint64_t stop = nowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const uint64_t dur = stop - open.startNs;
    Totals &t = totals_[open.name];
    ++t.count;
    t.totalNs += dur;
    t.childNs += open.childNs;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (open.index != noParent)
        spans_[open.index].endNs = stop;
}

bool
SpanRecorder::dump(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    logtm::JsonWriter w(os);
    w.beginObject();
    w.field("schema", std::string("perfbench-spans-v1"));
    w.key("names");
    w.beginArray();
    for (const std::string &n : names_)
        w.value(n);
    w.endArray();
    w.field("dropped", dropped_);
    w.key("fields");
    w.beginArray();
    for (const char *f : {"name", "parent", "run", "start_ns", "end_ns"})
        w.value(f);
    w.endArray();
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans_) {
        os << (&s == spans_.data() ? "\n" : ",\n");
        os << "[" << s.name << ","
           << (s.parent == noParent ? int64_t{-1}
                                    : static_cast<int64_t>(s.parent))
           << "," << s.run << "," << s.startNs << "," << s.endNs << "]";
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
