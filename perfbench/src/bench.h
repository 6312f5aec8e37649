// Shared plumbing of the benchmark: options, the result report,
// a bounded latency histogram, and the in-memory span recorder the traced
// run uses.
//
// The benchmark measures the library only through its public headers.  Its own
// bookkeeping is bounded (histograms, never per-request vectors) so the
// process's peak RSS is the program's, not the benchmark's.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace perfbench {

using seda::Addr;
using seda::u32;
using seda::u64;
using seda::u8;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// Threads the timed phases may run at once (the host's 4 cores); every
/// workload sizes its pools so that the process never exceeds it.
inline constexpr std::size_t k_thread_budget = 4;

/// The seed the recorded reference values (folds, counters) belong to.
inline constexpr u64 k_reference_seed = 1;

struct Options {
    std::string workload;
    u64 seed = k_reference_seed;
    double seconds = 10.0;
    bool trace = false;
    /// Internal: run one untimed-set-up, single-phase probe instead of a
    /// workload (run.py uses "serve_hi" for the obs on/off comparison).
    std::string probe;
};

/// Log-bucketed histogram: 64 linear sub-buckets per octave (<=1.6%
/// relative bucket width), bounded memory at any sample count.
class Histogram {
public:
    void record(double v);
    void merge(const Histogram& o);
    [[nodiscard]] u64 count() const { return count_; }
    /// Nearest-rank percentile, interpolated inside its bucket and clamped
    /// to the recorded extremes (0 when empty).
    [[nodiscard]] double percentile(double pct) const;

private:
    std::vector<u64> counts_;
    u64 count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Exact samples for timings counted in tens or hundreds per run (whole
/// inferences, whole sweeps), where bucket interpolation would quantize.
class Samples {
public:
    void record(double v) { v_.push_back(v); }
    void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    [[nodiscard]] std::size_t count() const { return v_.size(); }
    /// Linear interpolation between closest ranks (0 when empty).
    [[nodiscard]] double percentile(double pct) const;

private:
    std::vector<double> v_;
};

/// Metrics, notes and the op ledger of one run.  Notes go to stdout at once
/// (prefixed "# "); the result line is printed last by print_result().
class Report {
public:
    void metric(std::string name, double value, std::string unit);
    /// Multiplies metric `name` by `factor`, noting the value as measured.
    void rescale(const std::string& name, double factor);
    static void note(const std::string& line);
    void attempt(u64 n = 1) { attempted_ += n; }
    /// Counts `n` failed operations and says why on stdout.
    void fail(const std::string& why, u64 n = 1);
    /// A check that is not itself an operation (a digest, a recorded
    /// counter): failing it makes the run incorrect and counts one op.
    void check(bool ok, const std::string& what);

    void print_result() const;

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

/// Peak resident set of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// CPU seconds all threads of this process have used so far.
[[nodiscard]] double cpu_seconds();

/// Median of a small sample (the set-up repetitions).
[[nodiscard]] double median(std::vector<double> v);

/// The smallest of per-window figures: the figure of the calmest window.
/// Host interference only ever adds time, and on a shared host it comes in
/// stretches of seconds to minutes, so the calmest window is the steady
/// estimate of what the program itself costs (0 when empty).
[[nodiscard]] double calm(const std::vector<double>& per_window);

/// Host speed, from a fixed integer-arithmetic loop that runs no SeDA code
/// and touches no memory (about 5 ms per burst on the reference host).
/// The shared host this benchmark was built on switches for minutes at a
/// time between speed regimes 25-45% apart, CPU time included; the loop
/// slows by about half as much and tracks the switch (see README.md).  The
/// gated time metrics are therefore reported at the reference host's
/// speed: measured time x scale().  A change to the program moves the
/// measured time but not the calibration.
class Host_speed {
public:
    /// Runs `bursts` calibration bursts on the calling thread.
    void calibrate(int bursts);
    /// Reference-host time per time measured here, from the median burst
    /// (steadier from run to run than the fastest, which a single lucky
    /// burst sets).
    [[nodiscard]] double scale() const;
    [[nodiscard]] std::string note() const;

private:
    std::vector<double> ns_;
};

/// One set-up repetition: wall seconds and the process's CPU seconds.
struct Setup_time {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/// Medians of set-up repetitions; setup_s reports the CPU figure (see
/// README.md: on a shared host wall-clock set-up swings with host load).
struct Setup_log {
    std::vector<double> wall;
    std::vector<double> cpu;
    void add(const Setup_time& t)
    {
        wall.push_back(t.wall_s);
        cpu.push_back(t.cpu_s);
    }
    [[nodiscard]] std::string note() const;
};

/// Deterministic 64-byte unit payload for (seed, a, b, c).
void fill_payload(u64 seed, u64 a, u64 b, u64 c, std::span<u8> out);

/// Deterministic key bytes for (seed, tag).
[[nodiscard]] std::vector<u8> make_key(u64 seed, u64 tag);

// ---------------------------------------------------------------- tracing ---
//
// The traced run records spans around the benchmark's calls into each layer.
// Spans live in per-thread in-memory buffers (bounded; further spans still
// feed the aggregates) and are written out once, at exit.

struct Span_stats {
    Histogram us;     ///< per-span duration in microseconds
    double ns = 0.0;  ///< total duration
    u64 count = 0;
};

class Tracer {
public:
    static void enable();
    [[nodiscard]] static bool enabled();
    [[nodiscard]] static u64 next_id();
    /// Records one finished span on the calling thread's buffer.
    static void record(const char* name, u64 id, u64 parent, std::int64_t t0,
                       std::int64_t t1);
    /// Aggregate of every span named `name` (call after the recording
    /// threads have been joined).
    [[nodiscard]] static Span_stats stats(std::string_view name);
    /// Writes every kept span as JSON lines; returns spans written.
    static std::size_t write(const std::string& path);
};

/// RAII span: a no-op unless the tracer is enabled.
class Span {
public:
    explicit Span(const char* name, u64 parent = 0)
        : name_(name), parent_(parent)
    {
        if (Tracer::enabled()) {
            id_ = Tracer::next_id();
            t0_ = now_ns();
        }
    }
    ~Span()
    {
        if (id_ != 0) Tracer::record(name_, id_, parent_, t0_, now_ns());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] u64 id() const { return id_; }

private:
    const char* name_;
    u64 parent_;
    u64 id_ = 0;
    std::int64_t t0_ = 0;
};

// -------------------------------------------------------------- workloads ---

void run_serve_open(const Options& opt, Report& report);
void run_infer_session(const Options& opt, Report& report);
void run_infer_serve(const Options& opt, Report& report);
void run_suite_sweep(const Options& opt, Report& report);

/// Probe for run.py's obs on/off comparison: one untraced `hi` phase of
/// serve_open; reports its p50 as "probe_p50_us".
void run_serve_probe(const Options& opt, Report& report);

// Segments of the traced run.  A traced run executes every segment, so every
// per-layer metric is measured in every traced run.  Each segment returns
// its workload's headline latency (us) so the run can compare the same
// segment untraced and traced (trace_overhead_pct); with the tracer off a
// segment skips its layer ladder and reports nothing.  The suite segment's
// headline is the wall time of a fixed serial pass, so it takes no length.

double serve_segment(const Options& opt, double seconds, Report& report);
double infer_segment(const Options& opt, bool via_server, double seconds, Report& report);
double suite_segment(const Options& opt, Report& report);

}  // namespace perfbench
