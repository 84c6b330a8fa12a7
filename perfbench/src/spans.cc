#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

std::uint64_t
SpanRecorder::nextId()
{
    std::lock_guard<std::mutex> lock(mtx_);
    return nextId_++;
}

void
SpanRecorder::add(SpanRecord span)
{
    if (!enabled_)
        return;
    span.thread = threadIndex();
    std::lock_guard<std::mutex> lock(mtx_);
    spans_.push_back(std::move(span));
}

std::uint64_t
SpanRecorder::addDerived(const char *name, double end, double seconds,
                         std::uint64_t parent, std::uint64_t request)
{
    if (!enabled_)
        return 0;
    SpanRecord s;
    s.name = name;
    s.end = end;
    s.start = end - std::max(seconds, 0.0);
    s.id = nextId();
    s.parent = parent;
    s.request = request;
    s.derived = true;
    const std::uint64_t id = s.id;
    add(std::move(s));
    return id;
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return spans_;
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer() const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord *>>
        children;
    for (const SpanRecord &s : all) {
        if (s.parent)
            children[s.parent].push_back(&s);
    }

    std::map<std::string, double> self;
    for (const SpanRecord &s : all) {
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> iv;
        if (auto it = children.find(s.id); it != children.end()) {
            for (const SpanRecord *c : it->second) {
                const double a = std::max(c->start, s.start);
                const double b = std::min(c->end, s.end);
                if (b > a)
                    iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_a = 0.0;
        double cur_b = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;
        self[layerOf(s.name)] += std::max(0.0, s.end - s.start - covered);
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::secondsByName() const
{
    std::map<std::string, double> total;
    for (const SpanRecord &s : spans())
        total[s.name] += s.end - s.start;
    return total;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    const std::vector<SpanRecord> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double origin = all.empty() ? 0.0 : all.front().start;
    for (const SpanRecord &s : all)
        origin = std::min(origin, s.start);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < all.size(); i++) {
        const SpanRecord &s = all[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"derived\":%s}}",
                     i ? "," : "", s.name.c_str(),
                     layerOf(s.name).c_str(), s.thread,
                     (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     s.derived ? "true" : "false");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(SpanRecorder &rec, const char *name, std::uint64_t request,
           std::uint64_t parent)
    : rec_(rec), name_(name), request_(request), parent_(parent)
{
    if (rec_.enabled()) {
        id_ = rec_.nextId();
        start_ = nowSeconds();
    }
}

Span::~Span()
{
    if (!rec_.enabled())
        return;
    SpanRecord s;
    s.name = name_;
    s.start = start_;
    s.end = nowSeconds();
    s.id = id_;
    s.parent = parent_;
    s.request = request_;
    rec_.add(std::move(s));
}

} // namespace perfbench
