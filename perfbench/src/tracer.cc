#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 20, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
middleMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i + cut < v.size(); ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

namespace {

thread_local Tracer::Span *tlsTop = nullptr;

unsigned
threadTag()
{
    return static_cast<unsigned>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        100000);
}

} // namespace

Tracer::Span::Span(Tracer &t, std::string name, std::string layer)
    : t_(t), parent_(tlsTop), prevTop_(tlsTop),
      weight_(tlsTop != nullptr ? tlsTop->weight_ : 1.0)
{
    index_ = t_.open(name, layer,
                     parent_ != nullptr ? parent_->index_ + 1 : 0);
    tlsTop = this;
}

Tracer::Span::Span(Tracer &t, std::string name, std::string layer,
                   Span &parent, double weight)
    : t_(t), parent_(&parent), prevTop_(tlsTop), weight_(weight)
{
    index_ = t_.open(name, layer, parent.index_ + 1);
    tlsTop = this;
}

Tracer::Span::~Span()
{
    tlsTop = prevTop_;
    double inner = 0.0;
    {
        std::lock_guard<std::mutex> lock(childMutex_);
        inner = childWeightedNs_;
    }
    t_.close(index_, weight_, inner);
    if (parent_ != nullptr) {
        std::int64_t dur = 0;
        {
            std::lock_guard<std::mutex> lock(t_.mutex_);
            const Record &r = t_.records_[index_];
            dur = r.endNs - r.startNs;
        }
        std::lock_guard<std::mutex> lock(parent_->childMutex_);
        parent_->childWeightedNs_ += static_cast<double>(dur) * weight_;
    }
}

void
Tracer::Span::addInner(const std::string &layer, std::int64_t ns)
{
    const double weighted = static_cast<double>(ns) * weight_;
    {
        std::lock_guard<std::mutex> lock(childMutex_);
        childWeightedNs_ += weighted;
    }
    std::lock_guard<std::mutex> lock(t_.mutex_);
    t_.selfSeconds_[layer] += weighted * 1e-9;
    t_.innerSeconds_[layer] += weighted * 1e-9;
}

void
Tracer::Span::rename(const std::string &name)
{
    std::lock_guard<std::mutex> lock(t_.mutex_);
    t_.records_[index_].name = name;
}

std::size_t
Tracer::open(const std::string &name, const std::string &layer,
             std::uint64_t parentId)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Record r;
    r.name = name;
    r.layer = layer;
    r.tid = threadTag();
    r.id = records_.size() + 1;
    r.parentId = parentId;
    r.startNs = nowNs();
    records_.push_back(std::move(r));
    return records_.size() - 1;
}

void
Tracer::close(std::size_t index, double weight, double childWeightedNs)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Record &r = records_[index];
    r.endNs = end;
    const double self =
        static_cast<double>(r.endNs - r.startNs) * weight - childWeightedNs;
    selfSeconds_[r.layer] += self * 1e-9;
}

std::map<std::string, double>
Tracer::layerSelfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return selfSeconds_;
}

double
Tracer::rootSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double s = 0.0;
    for (const Record &r : records_)
        if (r.parentId == 0)
            s += static_cast<double>(r.endNs - r.startNs) * 1e-9;
    return s;
}

double
Tracer::spanSeconds(const std::string &name) const
{
    double s = 0.0;
    for (double d : spanDurations(name))
        s += d;
    return s;
}

std::uint64_t
Tracer::spanCount(const std::string &name) const
{
    return spanDurations(name).size();
}

std::vector<double>
Tracer::spanDurations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record &r : records_)
        if (r.name == name)
            out.push_back(static_cast<double>(r.endNs - r.startNs) *
                          1e-9);
    return out;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace to " + path);
    const std::int64_t t0 =
        records_.empty() ? 0 : records_.front().startNs;
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << r.name
           << "\",\"cat\":\"" << (r.layer.empty() ? "run" : r.layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
           << ",\"ts\":" << static_cast<double>(r.startNs - t0) * 1e-3
           << ",\"dur\":" << static_cast<double>(r.endNs - r.startNs) * 1e-3
           << ",\"args\":{\"run\":" << runId_ << ",\"id\":" << r.id
           << ",\"parent\":" << r.parentId << "}}";
    }
    os << "\n],\"otherData\":{\"run\":" << runId_;
    for (const auto &[layer, s] : innerSeconds_)
        os << ",\"inner." << layer << "_s\":" << s;
    os << "}}\n";
    if (!os)
        throw std::runtime_error("short write of trace " + path);
}

} // namespace perfbench
