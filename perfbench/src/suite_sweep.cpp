// suite_sweep: the full Fig. 5/6 matrix -- the 5 paper schemes x 13 models
// x {server, edge} NPUs -- through runtime::run_suites_parallel.
//
// The only workload that runs accel / dram / protect / core::seda_scheme;
// it touches no functional crypto, Secure_memory or serve code, so it is the
// predicted-no-change control for every data-path change.  Its inputs do
// not depend on the seed; the traced run's ladder uses the seed to pick the
// models it breaks down.
//
// Simulated numbers are checked, not just timed: a digest over every cell's
// cycles and traffic must equal the recorded one, and SeDA's average
// normalized performance per NPU must equal the recorded value.  That
// performance model is unvalidated against hardware; the benchmark checks
// only that a change leaves it unchanged.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "accel/accel_sim.h"
#include "accel/npu_config.h"
#include "bench.h"
#include "common/bitutil.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/secure_npu.h"
#include "models/zoo.h"
#include "protect/scheme.h"
#include "runtime/parallel_suite.h"

namespace perfbench {

namespace {

/// Sweep workers; with the calling thread (blocked in the join) that is
/// the 4-thread budget.
constexpr std::size_t k_jobs = k_thread_budget - 1;
constexpr int k_setup_reps = 101;

/// Recorded results of the sweep (seed-independent).
constexpr u64 k_cell_digest = 14989519411042781316ULL;
constexpr double k_seda_perf_server = 0.9940;
constexpr double k_seda_perf_edge = 0.9926;

std::array<seda::accel::Npu_config, 2> npus()
{
    return {seda::accel::Npu_config::server(), seda::accel::Npu_config::edge()};
}

std::vector<std::string_view> models_for(u64 seed)
{
    std::vector<std::string_view> models = seda::core::suite_models({});
    seda::Rng rng(seed ^ 0x5EEDULL);
    for (std::size_t i = models.size(); i > 1; --i)
        std::swap(models[i - 1], models[rng.next_below(i)]);
    return models;
}

void mix(u64& h, std::string_view s)
{
    h = (h ^ seda::fnv1a64(reinterpret_cast<const u8*>(s.data()), s.size())) *
        0x100000001B3ULL;
}

void mix(u64& h, u64 v)
{
    h = (h ^ v) * 0x100000001B3ULL;
    h ^= h >> 29;
}

/// Digest of every cell's cycles and traffic, in canonical (npu, scheme,
/// model name) order.
u64 cell_digest(const std::vector<seda::core::Suite_result>& results)
{
    u64 h = 0xCBF29CE484222325ULL;
    for (const auto& r : results)
        for (const auto& series : r.series) {
            std::map<std::string, const seda::core::Workload_point*> by_model;
            for (const auto& p : series.points) by_model[p.model] = &p;
            for (const auto& [model, p] : by_model) {
                mix(h, r.npu_name);
                mix(h, series.scheme);
                mix(h, model);
                mix(h, p->stats.total_cycles);
                mix(h, p->stats.traffic_bytes);
                mix(h, p->baseline.total_cycles);
                mix(h, p->baseline.traffic_bytes);
            }
        }
    return h;
}

std::size_t cells_of(const std::vector<seda::core::Suite_result>& results)
{
    std::size_t n = 0;
    for (const auto& r : results)
        for (const auto& series : r.series) n += series.points.size();
    return n;
}

double seda_perf(const seda::core::Suite_result& r)
{
    for (const auto& series : r.series)
        if (series.scheme == "seda") return series.avg_norm_perf();
    return 0.0;
}

/// Checks one full sweep; a wrong digest fails every cell of it.
void check_sweep(const std::vector<seda::core::Suite_result>& results, Report& report)
{
    const std::size_t cells = cells_of(results);
    report.attempt(cells);
    const u64 digest = cell_digest(results);
    if (digest != k_cell_digest)
        report.fail("suite cell digest " + std::to_string(digest) + " != recorded " +
                        std::to_string(k_cell_digest),
                    cells);
    const double want[2] = {k_seda_perf_server, k_seda_perf_edge};
    for (std::size_t i = 0; i < results.size() && i < 2; ++i) {
        const double got = seda_perf(results[i]);
        report.check(std::round(got * 1e4) == std::round(want[i] * 1e4),
                     "seda avg_norm_perf on " + results[i].npu_name + " = " +
                         std::to_string(got));
    }
}

/// Set-up a sweep user pays before the first cell: resolving the model
/// list and building every model descriptor and NPU configuration.
Setup_time setup_once(u64 seed)
{
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    const auto models = models_for(seed);
    std::size_t layers = 0;
    for (const auto& m : models) layers += seda::models::model_by_name(m).layers.size();
    const auto configs = npus();
    const Setup_time t{seconds_between(t0, Clock::now()), cpu_seconds() - cpu0};
    seda::require(layers > 0 && configs.size() == 2, "suite_sweep: empty model zoo");
    return t;
}

/// Times begin_model / transform_layer / end_model of the wrapped scheme.
class Timed_scheme final : public seda::protect::Protection_scheme {
public:
    Timed_scheme(seda::protect::Protection_scheme& inner, const char* span_name)
        : inner_(inner), span_name_(span_name)
    {
    }
    [[nodiscard]] std::string name() const override { return inner_.name(); }
    void begin_model(const seda::accel::Model_sim& sim) override
    {
        Span span(span_name_);
        inner_.begin_model(sim);
    }
    [[nodiscard]] seda::protect::Layer_protect_result transform_layer(
        const seda::accel::Layer_sim& layer) override
    {
        Span span(span_name_);
        return inner_.transform_layer(layer);
    }
    [[nodiscard]] seda::protect::Layer_protect_result end_model() override
    {
        Span span(span_name_);
        return inner_.end_model();
    }
    [[nodiscard]] int crypto_engine_equivalents(
        const seda::accel::Npu_config& npu) const override
    {
        return inner_.crypto_engine_equivalents(npu);
    }

private:
    seda::protect::Protection_scheme& inner_;
    const char* span_name_;
};

/// Span names per paper scheme (string literals outlive every span).
struct Scheme_spans {
    const char* transform;
    const char* run;
};
Scheme_spans spans_for(std::string_view id)
{
    if (id == "sgx-64") return {"protect.transform.sgx-64", "suite.run.sgx-64"};
    if (id == "mgx-64") return {"protect.transform.mgx-64", "suite.run.mgx-64"};
    if (id == "sgx-512") return {"protect.transform.sgx-512", "suite.run.sgx-512"};
    if (id == "mgx-512") return {"protect.transform.mgx-512", "suite.run.mgx-512"};
    return {"protect.transform.seda", "suite.run.seda"};
}

}  // namespace

void run_suite_sweep(const Options& opt, Report& report)
{
    Setup_log setups;
    for (int i = 0; i < k_setup_reps; ++i) setups.add(setup_once(opt.seed));

    // The zoo's order, not a seeded one: which models the workers hold at
    // once sets the peak RSS, so a fixed order keeps peak_rss_MB steady.
    const auto models = seda::core::suite_models({});
    const auto configs = npus();
    Samples sweep_us;
    std::size_t cells = 0;
    double busy_s = 0.0;
    std::vector<seda::core::Suite_result> last;
    std::vector<double> cpu_per_cell;  ///< process CPU per cell, per sweep
    const auto start = Clock::now();
    const double cpu0 = cpu_seconds();
    do {
        const auto t0 = Clock::now();
        const double sweep_cpu0 = cpu_seconds();
        last = seda::runtime::run_suites_parallel(configs, seda::core::paper_schemes(), k_jobs,
                                                  models);
        const double s = seconds_between(t0, Clock::now());
        sweep_us.record(s * 1e6);
        cpu_per_cell.push_back((cpu_seconds() - sweep_cpu0) * 1e6 /
                               static_cast<double>(cells_of(last)));
        busy_s += s;
        cells += cells_of(last);
        check_sweep(last, report);
    } while (seconds_between(start, Clock::now()) < opt.seconds);
    const double cpu_s = cpu_seconds() - cpu0;

    std::ostringstream os;
    os.precision(5);
    os << "suite_sweep: " << sweep_us.count() << " sweeps of " << cells_of(last)
       << " cells; fastest sweep " << sweep_us.percentile(0) / 1e6 << " s, sweep p50 "
       << sweep_us.percentile(50) / 1e6 << " s, p90 "
       << sweep_us.percentile(90) / 1e6 << " s (over " << sweep_us.count() << " sweeps), "
       << static_cast<double>(cells) / busy_s << " cells/s, process CPU "
       << cpu_s * 1e3 / static_cast<double>(cells) << " ms per cell; simulated seda avg_norm_perf " << seda_perf(last[0]) << " server / "
       << seda_perf(last[1])
       << " edge (performance model unvalidated against hardware)";
    Report::note(os.str());
    Report::note(setups.note());

    report.metric("setup_s", median(setups.cpu), "s");
    report.metric("calm_cpu_us_per_op", calm(cpu_per_cell), "us");
    report.metric("peak_rss_MB", peak_rss_mb(), "MB");
}

double suite_segment(const Options& opt, Report& report)
{
    // A seed-chosen subset of models keeps the segment short; per-call
    // means normalize the layer numbers.
    auto models = models_for(opt.seed);
    models.resize(3);
    const auto configs = npus();

    // Serial pass over every cell of the subset, with spans only when the
    // tracer is on: its wall time is the segment's headline, so the
    // untraced and traced passes cover the same work.
    std::map<std::string, seda::core::Run_stats> serial;  ///< by npu/scheme/model
    std::map<std::string, std::size_t> cells_per_scheme;
    const std::int64_t w0 = now_ns();
    for (const auto& npu : configs) {
        for (const auto& m : models) {
            {
                Span span("accel.simulate");
                (void)seda::accel::simulate_model(seda::models::model_by_name(m), npu);
            }
            std::optional<seda::core::Suite_column> column;
            {
                Span span("suite.column");
                column = seda::core::make_suite_column(m, npu);
            }
            for (const auto id : seda::core::paper_schemes()) {
                const Scheme_spans names = spans_for(id);
                Span cell("suite.cell");
                auto inner = seda::core::make_scheme(std::string(id));
                Timed_scheme timed(*inner, names.transform);
                Span run(names.run, cell.id());
                serial[npu.name + "/" + std::string(id) + "/" + std::string(m)] =
                    seda::core::run_protected(column->sim, timed);
                ++cells_per_scheme[std::string(id)];
            }
        }
    }
    const double serial_ns = static_cast<double>(now_ns() - w0);
    if (!Tracer::enabled()) return serial_ns / 1e3;

    // The same cells through run_suites_parallel: each must equal its
    // serial result.
    const auto p0 = Clock::now();
    const auto parallel = seda::runtime::run_suites_parallel(
        configs, seda::core::paper_schemes(), k_jobs, models);
    const double parallel_s = seconds_between(p0, Clock::now());
    for (const auto& r : parallel)
        for (const auto& series : r.series)
            for (const auto& p : series.points) {
                report.attempt();
                const auto it = serial.find(r.npu_name + "/" + series.scheme + "/" + p.model);
                if (it == serial.end() || it->second.total_cycles != p.stats.total_cycles ||
                    it->second.traffic_bytes != p.stats.traffic_bytes)
                    report.fail("suite segment: parallel cell " + r.npu_name + "/" +
                                series.scheme + "/" + p.model + " differs from its serial run");
            }

    const Span_stats sim = Tracer::stats("accel.simulate");
    const Span_stats col = Tracer::stats("suite.column");
    const Span_stats cell = Tracer::stats("suite.cell");
    report.metric("accel.simulate_ms", sim.ns / static_cast<double>(sim.count) / 1e6, "ms");
    report.metric("suite.column_ms", col.ns / static_cast<double>(col.count) / 1e6, "ms");
    for (const auto id : seda::core::paper_schemes()) {
        const Scheme_spans names = spans_for(id);
        const double n = static_cast<double>(cells_per_scheme[std::string(id)]);
        const double transform = Tracer::stats(names.transform).ns;
        const double run = Tracer::stats(names.run).ns;
        report.metric("protect.transform_ms." + std::string(id), transform / n / 1e6, "ms");
        report.metric("dram.price_ms." + std::string(id), (run - transform) / n / 1e6, "ms");
    }
    // Work the parallel sweep had to do, measured serially, against the
    // capacity its workers had.
    report.metric("runtime.suite_efficiency",
                  (col.ns + cell.ns) / (static_cast<double>(k_jobs) * parallel_s * 1e9), "x");
    report.metric("suite.unattributed_ms", (serial_ns - sim.ns - col.ns - cell.ns) / 1e6, "ms");
    std::ostringstream os;
    os << "suite ladder: " << models.size() << " models x " << configs.size()
       << " NPUs, serial pass " << serial_ns / 1e9 << " s traced; in parallel "
       << cells_of(parallel) << " cells, " << parallel_s << " s, each equal to its serial run";
    Report::note(os.str());
    return serial_ns / 1e3;
}

}  // namespace perfbench
