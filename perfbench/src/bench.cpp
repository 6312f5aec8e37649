#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {

// -------------------------------------------------------------- histogram ---

namespace {

constexpr double k_ticks_per_unit = 1024.0;  // fixed point: ~1 ns for us values
constexpr unsigned k_sub_bits = 6;
constexpr u64 k_sub = u64{1} << k_sub_bits;
constexpr u64 k_max_ticks = u64{1} << 52;

std::size_t bucket_of(u64 ticks)
{
    if (ticks < k_sub) return static_cast<std::size_t>(ticks);
    const unsigned e = static_cast<unsigned>(std::bit_width(ticks)) - 1;
    return static_cast<std::size_t>((e - k_sub_bits + 1) * k_sub +
                                    ((ticks >> (e - k_sub_bits)) & (k_sub - 1)));
}

u64 bucket_lower(std::size_t i)
{
    if (i < k_sub) return i;
    const unsigned e = static_cast<unsigned>(i / k_sub) + k_sub_bits - 1;
    return (u64{1} << e) + (static_cast<u64>(i % k_sub) << (e - k_sub_bits));
}

u64 bucket_width(std::size_t i)
{
    if (i < k_sub) return 1;
    const unsigned e = static_cast<unsigned>(i / k_sub) + k_sub_bits - 1;
    return u64{1} << (e - k_sub_bits);
}

}  // namespace

void Histogram::record(double v)
{
    v = std::max(v, 0.0);
    const u64 ticks = std::min(static_cast<u64>(std::llround(v * k_ticks_per_unit)), k_max_ticks);
    const std::size_t i = bucket_of(ticks);
    if (counts_.size() <= i) counts_.resize(i + 1, 0);
    ++counts_[i];
    min_ = count_ == 0 ? v : std::min(min_, v);
    max_ = count_ == 0 ? v : std::max(max_, v);
    ++count_;
}

void Histogram::merge(const Histogram& o)
{
    if (o.count_ == 0) return;
    if (counts_.size() < o.counts_.size()) counts_.resize(o.counts_.size(), 0);
    for (std::size_t i = 0; i < o.counts_.size(); ++i) counts_[i] += o.counts_[i];
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = count_ == 0 ? o.max_ : std::max(max_, o.max_);
    count_ += o.count_;
}

double Histogram::percentile(double pct) const
{
    if (count_ == 0) return 0.0;
    const u64 rank = std::max<u64>(
        1, static_cast<u64>(std::ceil(pct / 100.0 * static_cast<double>(count_))));
    u64 seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        if (seen + counts_[i] >= rank) {
            const double frac = (static_cast<double>(rank - seen) - 0.5) /
                                static_cast<double>(counts_[i]);
            const double ticks = static_cast<double>(bucket_lower(i)) +
                                 frac * static_cast<double>(bucket_width(i));
            return std::clamp(ticks / k_ticks_per_unit, min_, max_);
        }
        seen += counts_[i];
    }
    return max_;
}

double Samples::percentile(double pct) const
{
    if (v_.empty()) return 0.0;
    std::vector<double> v = v_;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(pct / 100.0, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

// ----------------------------------------------------------------- report ---

void Report::metric(std::string name, double value, std::string unit)
{
    for (Metric& m : metrics_)
        if (m.name == name) {
            m.value = value;
            m.unit = std::move(unit);
            return;
        }
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::rescale(const std::string& name, double factor)
{
    for (Metric& m : metrics_)
        if (m.name == name) {
            std::ostringstream os;
            os.precision(6);
            os << "as measured: " << name << " " << m.value << " " << m.unit
               << ", at reference host speed " << m.value * factor;
            note(os.str());
            m.value *= factor;
        }
}

void Report::note(const std::string& line)
{
    std::cout << "# " << line << '\n' << std::flush;
}

void Report::fail(const std::string& why, u64 n)
{
    failed_ += n;
    note("FAILED (" + std::to_string(n) + " op(s)): " + why);
}

void Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) fail("check: " + what);
}

void Report::print_result() const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << '\n' << std::flush;
}

// ------------------------------------------------------------------ misc ---

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string Setup_log::note() const
{
    std::ostringstream os;
    os.precision(5);
    os << "set-up: " << cpu.size() << " repetitions, median " << median(cpu) << " CPU s, "
       << median(wall) << " wall s";
    return os.str();
}

namespace {

/// Median calibration burst on the reference host (4-vCPU Xeon VM,
/// Release build): a scale of 1 means this speed.
constexpr double k_reference_burst_ns = 5.0e6;

}  // namespace

void Host_speed::calibrate(int bursts)
{
    constexpr u64 k_iters = u64{1} << 21;
    volatile u64 sink = 0;
    for (int b = 0; b < bursts; ++b) {
        const std::int64_t t0 = now_ns();
        u64 a = 1, c = 2, d = 3, e = 4;
        for (u64 i = 0; i < k_iters; ++i) {
            a = a * 6364136223846793005ULL + 1442695040888963407ULL;
            c ^= c << 13;
            c ^= c >> 7;
            c ^= c << 17;
            d = std::rotl(d + a, 17) ^ c;
            e += d >> 3;
        }
        const std::int64_t t1 = now_ns();
        sink = sink + (a ^ c ^ d ^ e);
        ns_.push_back(static_cast<double>(t1 - t0));
    }
}

double Host_speed::scale() const
{
    return ns_.empty() ? 1.0 : k_reference_burst_ns / median(ns_);
}

std::string Host_speed::note() const
{
    std::ostringstream os;
    os << "host speed: calibration burst median " << median(ns_) / 1e6 << " ms, fastest "
       << calm(ns_) / 1e6 << " ms over " << ns_.size() << " bursts; reference "
       << k_reference_burst_ns / 1e6 << " ms, scale " << scale();
    return os.str();
}

double calm(const std::vector<double>& per_window)
{
    return per_window.empty() ? 0.0 : *std::min_element(per_window.begin(), per_window.end());
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void fill_payload(u64 seed, u64 a, u64 b, u64 c, std::span<u8> out)
{
    u64 state = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL) ^
                (c * 0x165667B19E3779F9ULL);
    u64 word = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i % 8 == 0) word = seda::splitmix64(state);
        out[i] = static_cast<u8>(word >> ((i % 8) * 8));
    }
}

std::vector<u8> make_key(u64 seed, u64 tag)
{
    std::vector<u8> key(16);
    fill_payload(seed, tag, 0x4B45, 0, key);
    return key;
}

// ---------------------------------------------------------------- tracing ---

namespace {

struct Raw_span {
    const char* name;
    u64 id;
    u64 parent;
    std::int64_t t0;
    std::int64_t t1;
};

/// Spans kept per thread for the exit dump; aggregates see every span.
constexpr std::size_t k_kept_spans_per_thread = 1u << 17;

struct Thread_buffer {
    std::vector<Raw_span> spans;
    u64 dropped = 0;
    std::unordered_map<const char*, Span_stats> stats;
};

struct Trace_state {
    std::atomic<bool> enabled{false};
    std::atomic<u64> next_id{1};
    std::mutex mutex;  ///< guards buffers (registration and final reads)
    std::vector<std::unique_ptr<Thread_buffer>> buffers;
};

Trace_state& trace_state()
{
    static Trace_state s;
    return s;
}

Thread_buffer& thread_buffer()
{
    thread_local Thread_buffer* buf = nullptr;
    if (buf == nullptr) {
        Trace_state& s = trace_state();
        const std::scoped_lock lock(s.mutex);
        s.buffers.push_back(std::make_unique<Thread_buffer>());
        buf = s.buffers.back().get();
        buf->spans.reserve(1024);
    }
    return *buf;
}

}  // namespace

void Tracer::enable() { trace_state().enabled.store(true, std::memory_order_relaxed); }

bool Tracer::enabled() { return trace_state().enabled.load(std::memory_order_relaxed); }

u64 Tracer::next_id() { return trace_state().next_id.fetch_add(1, std::memory_order_relaxed); }

void Tracer::record(const char* name, u64 id, u64 parent, std::int64_t t0, std::int64_t t1)
{
    Thread_buffer& buf = thread_buffer();
    if (buf.spans.size() < k_kept_spans_per_thread)
        buf.spans.push_back({name, id, parent, t0, t1});
    else
        ++buf.dropped;
    Span_stats& st = buf.stats[name];
    const double ns = static_cast<double>(t1 - t0);
    st.us.record(ns / 1e3);
    st.ns += ns;
    ++st.count;
}

Span_stats Tracer::stats(std::string_view name)
{
    Trace_state& s = trace_state();
    const std::scoped_lock lock(s.mutex);
    Span_stats out;
    for (const auto& buf : s.buffers)
        for (const auto& [key, st] : buf->stats)
            if (name == key) {
                out.us.merge(st.us);
                out.ns += st.ns;
                out.count += st.count;
            }
    return out;
}

std::size_t Tracer::write(const std::string& path)
{
    Trace_state& s = trace_state();
    const std::scoped_lock lock(s.mutex);
    std::ofstream f(path);
    if (!f) return 0;
    std::size_t n = 0;
    u64 dropped = 0;
    for (const auto& buf : s.buffers) {
        dropped += buf->dropped;
        for (const Raw_span& sp : buf->spans) {
            f << "{\"name\":\"" << sp.name << "\",\"id\":" << sp.id << ",\"parent\":"
              << sp.parent << ",\"t0_ns\":" << sp.t0 << ",\"t1_ns\":" << sp.t1 << "}\n";
            ++n;
        }
    }
    f << "{\"dropped_spans\":" << dropped << "}\n";
    return n;
}

}  // namespace perfbench
