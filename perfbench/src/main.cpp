// seda_perfbench: the benchmark's measuring process.
//
//   seda_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints "# " note lines (host fingerprint, per-phase detail, sample
// counts, informational percentiles) and, last, one JSON result line with
// the keys correct / attempted / failed / metrics.  perfbench/run.py builds
// this binary and is the command to run; see perfbench/README.md.
//
// --trace 0 reports the end-to-end metrics of the workload, its times at a
// reference host speed (Host_speed in bench.h).  --trace 1
// first runs a short untraced pass of the workload, then every traced
// segment (serve, infer over both transports, suite) with spans around the
// calls into each layer, and reports every per-layer metric plus
// trace_overhead_pct (the workload's traced segment against its untraced
// pass).  Spans are kept in memory and written to .bench_build/ at exit.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "crypto/aes.h"
#include "crypto/aes_backend.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

void print_fingerprint()
{
    const auto f = seda::crypto::cpu_crypto_features();
    const auto aes = seda::crypto::backend_for(seda::crypto::Aes_backend_kind::auto_select).name();
    const auto sha =
        seda::crypto::sha256_backend_for(seda::crypto::Sha256_backend_kind::auto_select).name();
    std::ostringstream os;
    os << "fingerprint {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_crypto\": {\"aes\": " << f.aes << ", \"vaes\": " << f.vaes
       << ", \"sha_ni\": " << f.sha_ni << ", \"avx2\": " << f.avx2 << "}, \"aes_backend\": \""
       << aes << "\", \"sha_backend\": \"" << sha << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\"}";
    Report::note(os.str());
}

bool parse(int argc, char** argv, Options& opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") opt.workload = val;
        else if (key == "--seed") opt.seed = std::stoull(val);
        else if (key == "--seconds") opt.seconds = std::stod(val);
        else if (key == "--trace") opt.trace = val == "1";
        else if (key == "--probe") opt.probe = val;
        else return false;
    }
    return (argc % 2 == 1) && (!opt.workload.empty() || !opt.probe.empty()) &&
           opt.seconds > 0.0;
}

bool known(const std::string& w)
{
    return w == "serve_open" || w == "infer_session" || w == "infer_serve" ||
           w == "suite_sweep";
}

void run_traced(const Options& opt, Report& report)
{
    const double s = opt.seconds;
    // The workload's own segment, untraced, as the overhead baseline.
    double untraced = 0.0;
    if (opt.workload == "serve_open") untraced = serve_segment(opt, 0.2 * s, report);
    if (opt.workload == "infer_session") untraced = infer_segment(opt, false, 0.25 * s, report);
    if (opt.workload == "infer_serve") untraced = infer_segment(opt, true, 0.2 * s, report);
    if (opt.workload == "suite_sweep") {
        // Its serial pass is short and the first one pays the cold start.
        const double cold = suite_segment(opt, report);
        untraced = std::min(cold, suite_segment(opt, report));
    }

    Tracer::enable();
    const double serve = serve_segment(opt, 0.2 * s, report);
    const double session = infer_segment(opt, false, 0.25 * s, report);
    const double served = infer_segment(opt, true, 0.2 * s, report);
    const double suite = suite_segment(opt, report);
    double traced = suite;
    if (opt.workload == "serve_open") traced = serve;
    if (opt.workload == "infer_session") traced = session;
    if (opt.workload == "infer_serve") traced = served;
    report.metric("trace_overhead_pct", (traced - untraced) / untraced * 100.0, "%");

    std::ostringstream os;
    os << "trace: " << opt.workload << " headline " << untraced << " us untraced, " << traced
       << " us traced";
    Report::note(os.str());
    std::error_code ec;
    std::filesystem::create_directories(".bench_build", ec);
    const std::string path = ".bench_build/perfbench-spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    const std::size_t n = Tracer::write(path);
    Report::note("spans: " + std::to_string(n) + " written to " + path);
}

}  // namespace

int main(int argc, char** argv)
{
    Options opt;
    if (!parse(argc, argv, opt) || (opt.probe.empty() && !known(opt.workload)) ||
        (!opt.probe.empty() && opt.probe != "serve_hi")) {
        std::cerr << "usage: seda_perfbench --workload serve_open|infer_session|infer_serve|"
                     "suite_sweep --seed N --seconds S --trace 0|1\n";
        return 2;
    }
    try {
        print_fingerprint();
        Report report;
        if (!opt.probe.empty()) run_serve_probe(opt, report);
        else if (opt.trace) run_traced(opt, report);
        else {
            // Calibrated before and after, so the scale spans the run.
            Host_speed host;
            host.calibrate(20);
            if (opt.workload == "serve_open") run_serve_open(opt, report);
            else if (opt.workload == "infer_session") run_infer_session(opt, report);
            else if (opt.workload == "infer_serve") run_infer_serve(opt, report);
            else run_suite_sweep(opt, report);
            host.calibrate(20);
            Report::note(host.note());
            for (const char* name : {"setup_s", "calm_cpu_us_per_op"})
                report.rescale(name, host.scale());
        }
        report.print_result();
    } catch (const std::exception& e) {
        std::cerr << "seda_perfbench: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
