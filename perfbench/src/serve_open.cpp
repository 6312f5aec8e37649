// serve_open: open-loop secure serving.
//
// Poisson arrivals of single-unit 64 B protected requests (50/50 read and
// write) from 4 tenants over 256 pre-written slots each, into a
// serve::Server with one crypto worker.  Every request is timed from its
// SCHEDULED send time, so a stall also charges the requests it delays.
//
// Threads: the generator (calling thread) and one completer, plus the
// server's scheduler and its one pool worker -- 4 in all.  The generator
// hands futures to the completer through a bounded single-producer ring;
// the completer waits for them in submission order, stamps completion and
// checks every read against the generator's per-slot mirror (per-tenant
// FIFO through the server makes that mirror exact).
//
// Phases, interleaved over 3 rounds: `lo` (50k req/s: requests mostly
// dispatch alone, so per-request serve cost sets the latency), `hi`
// (200k req/s: windows grow and queueing appears) and `sat` (offered far
// beyond capacity: submit() back-pressure paces the generator and the
// completion rate is the server's capacity).
//
// End-to-end metric: calm_cpu_us_per_op, the process CPU per request of the
// calmest `sat` round.  Latency -- the median `lo` latency of the calmest of
// the 24 `lo` sub-windows, `hi` and whole-phase percentiles, p99s -- and the
// saturation capacity are printed for information only: hypervisor steal on
// a shared 4-vCPU host moved the whole-phase `lo` p50 by up to 50x and, in
// steal episodes lasting a quarter of an hour, even the calmest window by up
// to 15x, while CPU per request moved by a few percent (see README.md).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "gate.h"
#include "runtime/secure_session.h"
#include "serve/server.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_PAUSE() _mm_pause()
#else
#define PERFBENCH_PAUSE() std::this_thread::yield()
#endif

namespace perfbench {

namespace {

using seda::core::Verify_status;
using seda::serve::Op;

constexpr u32 k_tenants = 4;
constexpr u32 k_slots = 256;
constexpr std::size_t k_unit = 64;
constexpr double k_lo_rate = 50'000.0;
constexpr double k_hi_rate = 200'000.0;
constexpr int k_setup_reps = 15;

/// Offered rate of the saturation phase: far beyond what one scheduler can
/// dispatch, so submit() back-pressure paces the generator and the
/// completion rate is the server's capacity.
constexpr double k_sat_rate = 2'000'000.0;
/// Rounds of (lo, hi, sat): interleaving spreads each phase over the whole
/// run, so a noisy stretch of the host touches every phase a little.
constexpr int k_rounds = 3;
constexpr std::size_t k_lo_windows_per_round = 8;

/// The server plus the generator's mirror of what every slot holds.
struct Rig {
    std::unique_ptr<seda::serve::Server> server;
    std::vector<u32> version;  ///< [tenant * k_slots + slot]: payload version
    u64 seed = 0;
    u64 seq = 0;
    Gate_ledger gate;
};

seda::serve::Request make_request(Rig& rig, u32 tenant, u32 slot, Op op)
{
    seda::serve::Request req;
    req.tenant_id = tenant;
    req.seq = rig.seq++;
    req.op = op;
    req.addr = static_cast<Addr>(slot) * k_unit;
    req.blk_idx = slot;
    if (op == Op::write) {
        const u32 v = ++rig.version[tenant * k_slots + slot];
        req.payload.resize(k_unit);
        fill_payload(rig.seed, tenant, slot, v, req.payload);
    }
    return req;
}

/// Builds, starts and pre-writes a server; returns the set-up time.
Setup_time build_rig(Rig& rig, u64 seed)
{
    rig.server.reset();  // the previous server's threads end first
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    seda::serve::Server_config cfg;
    cfg.tenants = k_tenants;
    cfg.workers = 1;
    cfg.mem.unit_bytes = k_unit;
    rig.server = std::make_unique<seda::serve::Server>(make_key(seed, 0xE5C0DE),
                                                       make_key(seed, 0x3A5C0DE), cfg);
    rig.server->start();
    rig.seed = seed;
    rig.seq = 0;
    rig.version.assign(k_tenants * k_slots, 0);
    std::vector<std::future<seda::serve::Response>> futures;
    futures.reserve(k_tenants * k_slots);
    for (u32 t = 0; t < k_tenants; ++t)
        for (u32 s = 0; s < k_slots; ++s)
            futures.push_back(rig.server->submit(make_request(rig, t, s, Op::write)));
    for (auto& f : futures)
        seda::require(f.get().status == Verify_status::ok, "serve_open: pre-write failed");
    return {seconds_between(t0, Clock::now()), cpu_seconds() - cpu0};
}

struct Phase {
    double rate = 0.0;
    double seconds = 0.0;
    u64 offered = 0;
    u64 completed = 0;
    u64 completed_in_window = 0;  ///< completions stamped before the window closed
    u64 failed = 0;
    u64 max_backlog = 0;          ///< most requests submitted but not yet completed
    double window_s = 0.0;        ///< length of one sub-window
    Histogram latency_us;         ///< completion - scheduled send
    Histogram late_us;            ///< generator: actual send - scheduled send
    /// latency_us split by scheduled send time into equal sub-windows: the
    /// phase's percentiles are medians over these, so one host stall moves
    /// one window rather than the whole phase.
    std::vector<Histogram> windows;
    std::vector<u64> done_in_window;  ///< completions stamped inside each window

    /// The `pct` percentile of every non-empty window.
    [[nodiscard]] std::vector<double> window_values(double pct) const
    {
        std::vector<double> v;
        for (const Histogram& h : windows)
            if (h.count() > 0) v.push_back(h.percentile(pct));
        return v;
    }
    [[nodiscard]] double window_median(double pct) const { return median(window_values(pct)); }
    /// Median over windows of completions per second.
    [[nodiscard]] double completion_rate() const
    {
        std::vector<double> v;
        for (const u64 n : done_in_window) v.push_back(static_cast<double>(n) / window_s);
        return median(std::move(v));
    }
    /// Folds another round of the same phase in (windows append).
    void absorb(const Phase& o)
    {
        rate = o.rate;
        seconds += o.seconds;
        offered += o.offered;
        completed += o.completed;
        completed_in_window += o.completed_in_window;
        failed += o.failed;
        max_backlog = std::max(max_backlog, o.max_backlog);
        window_s = o.window_s;
        latency_us.merge(o.latency_us);
        late_us.merge(o.late_us);
        windows.insert(windows.end(), o.windows.begin(), o.windows.end());
        done_in_window.insert(done_in_window.end(), o.done_in_window.begin(),
                              o.done_in_window.end());
    }
};

struct Pending {
    std::future<seda::serve::Response> fut;
    std::int64_t due = 0;
    std::int64_t submitted = 0;  ///< submit() return (traced runs only)
    u64 span_id = 0;
    u32 tenant = 0;
    u32 slot = 0;
    u32 version = 0;
    Op op = Op::read;
};

/// Bounded single-producer/single-consumer hand-off of in-flight requests.
class Ring {
public:
    explicit Ring(std::size_t capacity) : slots_(capacity) {}
    [[nodiscard]] bool full() const
    {
        return tail_.load(std::memory_order_relaxed) - head_.load(std::memory_order_acquire) ==
               slots_.size();
    }
    [[nodiscard]] u64 size() const
    {
        return tail_.load(std::memory_order_relaxed) - head_.load(std::memory_order_acquire);
    }
    void push(Pending p)
    {
        const u64 t = tail_.load(std::memory_order_relaxed);
        slots_[t % slots_.size()] = std::move(p);
        tail_.store(t + 1, std::memory_order_release);
    }
    /// The oldest entry, or nullptr when empty (consumer only).
    [[nodiscard]] Pending* front()
    {
        const u64 h = head_.load(std::memory_order_relaxed);
        if (h == tail_.load(std::memory_order_acquire)) return nullptr;
        return &slots_[h % slots_.size()];
    }
    void pop() { head_.store(head_.load(std::memory_order_relaxed) + 1, std::memory_order_release); }

private:
    std::vector<Pending> slots_;
    std::atomic<u64> head_{0};
    std::atomic<u64> tail_{0};
};

/// Completer: waits for each request in submission order, stamps and checks it.
void complete_loop(Ring& ring, const std::atomic<bool>& producer_done, const Rig& rig,
                   std::int64_t window_start, std::int64_t window_end, Phase& ph)
{
    std::vector<u8> want(k_unit);
    for (;;) {
        Pending* p = ring.front();
        if (p == nullptr) {
            if (producer_done.load(std::memory_order_acquire) && ring.front() == nullptr) break;
            PERFBENCH_PAUSE();
            continue;
        }
        bool ok = true;
        seda::serve::Response r;
        try {
            r = p->fut.get();
        } catch (const std::exception&) {
            ok = false;
        }
        const std::int64_t done = now_ns();
        if (ok && r.status != Verify_status::ok) ok = false;
        if (ok && p->op == Op::read) {
            fill_payload(rig.seed, p->tenant, p->slot, p->version, want);
            ok = r.payload == want;
        }
        if (!ok) ++ph.failed;
        const double lat_us = static_cast<double>(done - p->due) / 1e3;
        ph.latency_us.record(lat_us);
        const auto w = static_cast<std::size_t>((p->due - window_start) *
                                                static_cast<std::int64_t>(ph.windows.size()) /
                                                (window_end - window_start));
        ph.windows[std::min(w, ph.windows.size() - 1)].record(lat_us);
        if (p->span_id != 0) {
            Tracer::record("serve.request", p->span_id, 0, p->due, done);
            Tracer::record("serve.sojourn", Tracer::next_id(), p->span_id, p->submitted, done);
        }
        if (done <= window_end) ++ph.completed_in_window;
        if (done >= window_start && done < window_end)
            ++ph.done_in_window[static_cast<std::size_t>(
                (done - window_start) * static_cast<std::int64_t>(ph.windows.size()) /
                (window_end - window_start))];
        ++ph.completed;
        p->fut = {};
        ring.pop();
    }
}

/// One open-loop phase at `rate` for `seconds`.
Phase run_phase(Rig& rig, double rate, double seconds, std::size_t windows, u64 stream_seed)
{
    Phase ph;
    ph.rate = rate;
    ph.seconds = seconds;
    ph.windows.resize(windows);
    ph.done_in_window.assign(windows, 0);
    ph.window_s = seconds / static_cast<double>(windows);
    seda::Rng rng(stream_seed);
    Ring ring(1u << 14);
    std::atomic<bool> producer_done{false};

    const std::int64_t start = now_ns() + 200'000;  // let the completer start
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::thread completer(complete_loop, std::ref(ring), std::cref(producer_done),
                          std::cref(rig), start, end, std::ref(ph));

    const bool traced = Tracer::enabled();
    const double mean_gap_ns = 1e9 / rate;
    double due = static_cast<double>(start);
    for (;;) {
        const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
        due += -std::log1p(-u) * mean_gap_ns;
        const auto due_ns = static_cast<std::int64_t>(due);
        std::int64_t now = now_ns();
        // Past the window either way: an overloaded (back-pressured)
        // generator stops at the wall-clock end, not after every due send.
        if (due_ns >= end || now >= end) break;
        while (now < due_ns) {
            PERFBENCH_PAUSE();
            now = now_ns();
        }
        ph.late_us.record(static_cast<double>(now - due_ns) / 1e3);

        const auto tenant = static_cast<u32>(rng.next_below(k_tenants));
        const auto slot = static_cast<u32>(rng.next_below(k_slots));
        const Op op = (rng.next_u64() & 1) ? Op::write : Op::read;
        Pending p;
        p.due = due_ns;
        p.tenant = tenant;
        p.slot = slot;
        p.op = op;
        seda::serve::Request req = make_request(rig, tenant, slot, op);
        p.version = rig.version[tenant * k_slots + slot];
        if (traced) {
            p.span_id = Tracer::next_id();
            {
                Span span("serve.submit", p.span_id);
                p.fut = rig.server->submit(std::move(req));
            }
            p.submitted = now_ns();
        } else {
            p.fut = rig.server->submit(std::move(req));
        }
        while (ring.full()) PERFBENCH_PAUSE();
        ring.push(std::move(p));
        ++ph.offered;
        ph.max_backlog = std::max(ph.max_backlog, ring.size());
    }
    producer_done.store(true, std::memory_order_release);
    completer.join();
    return ph;
}

std::string window_range(const Phase& ph, double pct)
{
    const std::vector<double> v = ph.window_values(pct);
    if (v.empty()) return "-";
    std::ostringstream os;
    os.precision(4);
    os << *std::min_element(v.begin(), v.end()) << ".." << *std::max_element(v.begin(), v.end());
    return os.str();
}

std::string phase_note(const std::string& name, const Phase& ph)
{
    std::ostringstream os;
    os.precision(4);
    os << "phase " << name << ": offered " << ph.rate << " req/s for " << ph.seconds
       << " s in " << ph.windows.size() << " windows; sent " << ph.offered << ", completed " << ph.completed << " ("
       << ph.completed_in_window << " inside the window), failed " << ph.failed
       << "; latency from scheduled send, median over windows: p50 " << ph.window_median(50)
       << " us, p90 " << ph.window_median(90) << " us; whole phase: p50 "
       << ph.latency_us.percentile(50) << " us, p90 " << ph.latency_us.percentile(90)
       << " us, p99 " << ph.latency_us.percentile(99) << " us (info only) over "
       << ph.latency_us.count() << " requests; window p90 range " << window_range(ph, 90)
       << " us; generator late p50 "
       << ph.late_us.percentile(50) << " us, p99 " << ph.late_us.percentile(99)
       << " us; max backlog " << ph.max_backlog;
    return os.str();
}

/// Runs a phase and folds it into the op ledger.
Phase measured_phase(Rig& rig, const std::string& name, double rate, double seconds,
                     std::size_t windows, u64 stream_seed, Report& report)
{
    Phase ph = run_phase(rig, rate, seconds, windows, stream_seed);
    report.attempt(ph.offered);
    if (ph.failed) report.fail("serve_open phase " + name + ": request check", ph.failed);
    Report::note(phase_note(name, ph));
    return ph;
}

/// Tamper/rollback two sampled slots per tenant, then a fault campaign.
void serve_gate(Rig& rig, u64 seed, Report& report)
{
    rig.server->drain();
    seda::Rng rng(seed ^ 0x5E1ECULL);
    std::vector<Unit_ref> slots;
    for (u32 slot = 0; slot < k_slots; ++slot)
        slots.push_back({static_cast<Addr>(slot) * k_unit, 0, 0, slot});
    for (u32 t = 0; t < k_tenants; ++t) {
        std::vector<Unit_ref> units;
        for (int i = 0; i < 2; ++i) units.push_back(slots[rng.next_below(k_slots)]);
        probe_units(rig.server->tenant(t).session().memory(), units, slots,
                    server_io(*rig.server, t), rng.next_u64(), report, rig.gate);
    }
    campaign_gate(seed, report);
}

/// Ledger check: the server saw exactly the detections the gates injected.
void check_server_ledger(const Rig& rig, Report& report)
{
    const auto totals = rig.server->stats().totals();
    report.check(totals.mac_mismatch == rig.gate.mac_mismatch &&
                     totals.replay_detected == rig.gate.replay_detected && totals.rejected == 0,
                 "server ledger: " + std::to_string(totals.mac_mismatch) + " mac_mismatch / " +
                     std::to_string(totals.replay_detected) + " replay for " +
                     std::to_string(rig.gate.mac_mismatch) + " / " +
                     std::to_string(rig.gate.replay_detected) + " attacked read(s), " +
                     std::to_string(totals.rejected) + " rejected");
}

}  // namespace

void run_serve_open(const Options& opt, Report& report)
{
    Rig rig;
    Setup_log setups;
    for (int i = 0; i < k_setup_reps; ++i) setups.add(build_rig(rig, opt.seed));

    const double s = opt.seconds;
    const double warm = std::min(0.2, 0.02 * s);
    u64 stream = opt.seed * 0x100;

    (void)run_phase(rig, k_lo_rate, warm, 1, ++stream);  // caches and allocator warm
    Phase lo;
    Phase hi;
    Phase sat;
    std::vector<double> sat_cpu_us;  ///< process CPU per request, per `sat` round
    // `lo` carries the printed latency and `sat` the gated CPU cost; `hi` is
    // printed for information only.
    const double lo_s = 0.5 * s / k_rounds;
    const double hi_s = 0.1 * s / k_rounds;
    const double sat_s = 0.3 * s / k_rounds;
    for (int r = 0; r < k_rounds; ++r) {
        const std::string round = " round " + std::to_string(r + 1);
        lo.absorb(measured_phase(rig, "lo" + round, k_lo_rate, lo_s, k_lo_windows_per_round,
                                 ++stream, report));
        hi.absorb(measured_phase(rig, "hi" + round, k_hi_rate, hi_s, 2, ++stream, report));
        const double cpu0 = cpu_seconds();
        const Phase ph = measured_phase(rig, "sat" + round, k_sat_rate, sat_s, 4, ++stream, report);
        sat_cpu_us.push_back((cpu_seconds() - cpu0) * 1e6 / static_cast<double>(ph.completed));
        sat.absorb(ph);
        serve_gate(rig, ++stream, report);
    }
    check_server_ledger(rig, report);
    Report::note(phase_note("lo", lo));
    Report::note(phase_note("hi", hi));
    Report::note(phase_note("sat", sat));

    const auto stats = rig.server->stats();
    std::ostringstream os;
    os.precision(5);
    os << "serve_open: saturation throughput " << sat.completion_rate()
       << " req/s (median over " << sat.done_in_window.size() << " windows); server dispatched "
       << stats.requests << " requests in " << stats.batches << " batches; lo p50 over windows: "
       << "median " << lo.window_median(50) << " us, calmest " << calm(lo.window_values(50))
       << " us; CPU per request in sat, median " << median(sat_cpu_us) << " us, calmest "
       << calm(sat_cpu_us) << " us";
    Report::note(os.str());
    Report::note(setups.note());

    report.metric("setup_s", median(setups.cpu), "s");
    report.metric("calm_cpu_us_per_op", calm(sat_cpu_us), "us");
    report.metric("peak_rss_MB", peak_rss_mb(), "MB");
}

void run_serve_probe(const Options& opt, Report& report)
{
    Rig rig;
    (void)build_rig(rig, opt.seed);
    (void)run_phase(rig, k_hi_rate, 0.2, 1, opt.seed * 0x100 + 1);
    const Phase hi = measured_phase(rig, "probe-hi", k_hi_rate, opt.seconds, 8, opt.seed * 0x100 + 2,
                                    report);
    report.metric("probe_p50_us", hi.window_median(50), "us");
}

double serve_segment(const Options& opt, double seconds, Report& report)
{
    Rig rig;
    (void)build_rig(rig, opt.seed);
    const bool traced = Tracer::enabled();
    const auto before = rig.server->stats();
    u64 stream = opt.seed * 0x200;
    (void)run_phase(rig, k_lo_rate, 0.1, 1, ++stream);
    const Phase lo = measured_phase(rig, "lo", k_lo_rate, 0.5 * seconds, 8, ++stream, report);
    if (!traced) return lo.window_median(50);

    const Phase hi = measured_phase(rig, "hi", k_hi_rate, 0.5 * seconds, 8, ++stream, report);
    const auto after = rig.server->stats();
    serve_gate(rig, ++stream, report);

    // Serve ladder over both phases' requests (lo and hi merged).
    const Span_stats submit = Tracer::stats("serve.submit");
    const Span_stats sojourn = Tracer::stats("serve.sojourn");
    const auto server_view = after.latency_us.delta_since(before.latency_us);
    Histogram late = lo.late_us;
    late.merge(hi.late_us);
    const double batches = static_cast<double>(after.batches - before.batches);
    report.metric("serve.submit_us.p50", submit.us.percentile(50), "us");
    report.metric("serve.sojourn_us.p50", sojourn.us.percentile(50), "us");
    report.metric("serve.sojourn_us.p90", sojourn.us.percentile(90), "us");
    report.metric("serve.server_us.p50", server_view.percentile(50), "us");
    report.metric("serve.delivery_us.p50",
                  sojourn.us.percentile(50) - server_view.percentile(50), "us");
    report.metric("serve.reqs_per_batch",
                  batches > 0 ? static_cast<double>(after.requests - before.requests) / batches
                              : 0.0,
                  "count");
    report.metric("bench.gen_late_us.p99", late.percentile(99), "us");
    report.metric("bench.backlog", static_cast<double>(std::max(lo.max_backlog, hi.max_backlog)),
                  "count");
    {
        std::ostringstream os;
        os << "serve ladder: " << submit.count << " submit spans, " << sojourn.count
           << " sojourn spans, " << server_view.count() << " server latency samples";
        Report::note(os.str());
    }
    rig.server.reset();

    // Service floor: 1-unit batches straight into a session (one worker).
    seda::core::Secure_mem_config mem_cfg;
    mem_cfg.unit_bytes = k_unit;
    seda::runtime::Secure_session session(make_key(opt.seed, 0x51), make_key(opt.seed, 0x52),
                                          mem_cfg, 1);
    std::vector<u8> data(k_unit);
    std::vector<u8> out(k_unit);
    const std::int64_t floor_end = now_ns() + static_cast<std::int64_t>(0.1 * seconds * 1e9);
    u64 n = 0;
    while (now_ns() < floor_end) {
        const Addr addr = (n % k_slots) * k_unit;
        fill_payload(opt.seed, 0x51, addr, n, data);
        const std::array<seda::core::Secure_memory::Unit_write, 1> w{
            {{addr, data, 0, 0, static_cast<u32>(n % k_slots)}}};
        const std::array<seda::core::Secure_memory::Unit_read, 1> r{
            {{addr, out, 0, 0, static_cast<u32>(n % k_slots)}}};
        {
            Span span("session.unit_write");
            session.write_units(w);
        }
        std::vector<Verify_status> st;
        {
            Span span("session.unit_read");
            st = session.read_units(r);
        }
        report.attempt();
        if (st.at(0) != Verify_status::ok || out != data) report.fail("session 1-unit read-back");
        ++n;
    }
    report.metric("session.unit_write_us", Tracer::stats("session.unit_write").us.percentile(50),
                  "us");
    report.metric("session.unit_read_us", Tracer::stats("session.unit_read").us.percentile(50),
                  "us");
    Report::note("session floor: " + std::to_string(n) + " 1-unit write/read pairs");
    return lo.window_median(50);
}

}  // namespace perfbench
