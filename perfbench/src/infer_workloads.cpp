// infer_session and infer_serve: protected DNN inference on both transports.
//
// mobilenet on the server NPU, two tenants, each with its own
// Inference_engine (own payload seed, own mirror of what it wrote).
//   infer_session - each tenant replays into its own runtime::Secure_session
//                   over one shared 2-worker pool (bulk batches of thousands
//                   of units; serve is bypassed).
//   infer_serve   - the same engines replay through one serve::Server (one
//                   crypto worker) via Server_sink, one request per unit.
// The core/crypto work is identical, so the gap between the two is the
// serving layer's per-request cost.
//
// Threads: tenant 0 replays on the calling thread, tenant 1 on one more;
// plus 2 pool workers (session) or the scheduler and 1 pool worker (serve).
#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/baes.h"
#include "crypto/mac.h"
#include "gate.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/unit_sink.h"
#include "models/zoo.h"
#include "runtime/secure_session.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using seda::core::Secure_memory;
using seda::core::Verify_status;

constexpr const char* k_model = "mobilenet";
constexpr u32 k_tenants = 2;
constexpr int k_rounds = 6;
/// Consecutive inferences per calm-latency window (about 1 s of
/// infer_session, one round of infer_serve; a shorter round is one window).
constexpr std::size_t k_calm_window = 8;
constexpr std::size_t k_session_workers = 2;

/// Deterministic Infer_stats of mobilenet on the server NPU.  Unit counts
/// are the same for every seed; the payload folds are those of the
/// reference seed (k_reference_seed), tenant 0 and 1, after the load and
/// the first inference.
struct Infer_reference {
    u64 load_writes;
    u64 writes_per_inf;
    u64 reads_per_inf;
    u64 bytes_per_inf;
    u64 first_fold[k_tenants];
};
constexpr Infer_reference k_ref = {84809, 81198, 151919, 14919488,
                                     {10131761435239565588ULL, 14728022721915122526ULL}};

u64 engine_seed(u64 seed, u32 tenant)
{
    return seed * 0x9E3779B97F4A7C15ULL + 0x1F2E3D4CULL * (tenant + 1);
}

/// Unit_sink over a bare Secure_memory: the serial core path.
class Memory_sink final : public seda::infer::Unit_sink {
public:
    explicit Memory_sink(Secure_memory& mem) : mem_(mem) {}
    void write_units(std::span<const Secure_memory::Unit_write> batch) override
    {
        mem_.write_units(batch);
    }
    void read_units(std::span<const Secure_memory::Unit_read> batch,
                    std::span<Verify_status> statuses) override
    {
        const auto st = mem_.read_units(batch);
        std::copy(st.begin(), st.end(), statuses.begin());
    }

private:
    Secure_memory& mem_;
};

/// One captured sink call: the batch exactly as the engine issued it.
struct Captured {
    bool write = false;
    std::vector<u8> bytes;  ///< write plaintexts / read buffers, unit after unit
    std::vector<Secure_memory::Unit_write> writes;
    std::vector<Secure_memory::Unit_read> reads;
};

/// Times and counts every call at the infer -> transport boundary, and can
/// capture one inference's batches for the layer ladder.
class Timing_sink final : public seda::infer::Unit_sink {
public:
    Timing_sink(seda::infer::Unit_sink& inner, const char* span_name)
        : inner_(inner), span_name_(span_name)
    {
    }

    void write_units(std::span<const Secure_memory::Unit_write> batch) override
    {
        if (capturing_) capture_write(batch);
        Span span(span_name_, parent_);
        ++calls_;
        units_ += batch.size();
        inner_.write_units(batch);
    }
    void read_units(std::span<const Secure_memory::Unit_read> batch,
                    std::span<Verify_status> statuses) override
    {
        if (capturing_) capture_read(batch);
        Span span(span_name_, parent_);
        ++calls_;
        units_ += batch.size();
        inner_.read_units(batch, statuses);
    }

    void set_parent(u64 id) { parent_ = id; }
    void set_capturing(bool on) { capturing_ = on; }
    [[nodiscard]] u64 calls() const { return calls_; }
    [[nodiscard]] u64 units() const { return units_; }
    [[nodiscard]] std::vector<Captured>& captured() { return captured_; }

private:
    void capture_write(std::span<const Secure_memory::Unit_write> batch)
    {
        Captured c;
        c.write = true;
        const std::size_t ub = batch.empty() ? 0 : batch[0].plaintext.size();
        c.bytes.resize(batch.size() * ub);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::copy(batch[i].plaintext.begin(), batch[i].plaintext.end(),
                      c.bytes.begin() + static_cast<std::ptrdiff_t>(i * ub));
            Secure_memory::Unit_write w = batch[i];
            w.plaintext = std::span<const u8>(c.bytes.data() + i * ub, ub);
            c.writes.push_back(w);
        }
        captured_.push_back(std::move(c));
    }
    void capture_read(std::span<const Secure_memory::Unit_read> batch)
    {
        Captured c;
        const std::size_t ub = batch.empty() ? 0 : batch[0].out.size();
        c.bytes.resize(batch.size() * ub);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Secure_memory::Unit_read r = batch[i];
            r.out = std::span<u8>(c.bytes.data() + i * ub, ub);
            c.reads.push_back(r);
        }
        captured_.push_back(std::move(c));
    }

    seda::infer::Unit_sink& inner_;
    const char* span_name_;
    u64 parent_ = 0;
    bool capturing_ = false;
    u64 calls_ = 0;
    u64 units_ = 0;
    std::vector<Captured> captured_;
};

/// Everything one infer workload runs on.  Member order is teardown order
/// in reverse: engines and sinks go before the transports they reference.
struct Rig {
    bool via_server = false;
    u64 seed = 0;
    std::unique_ptr<seda::infer::Model_binding> binding;
    std::unique_ptr<seda::runtime::Thread_pool> pool;
    std::vector<std::unique_ptr<seda::runtime::Secure_session>> sessions;
    std::unique_ptr<seda::serve::Server> server;
    std::vector<std::unique_ptr<seda::infer::Unit_sink>> sinks;       ///< transport sinks
    std::vector<std::unique_ptr<Timing_sink>> timing;                  ///< traced wrappers
    std::vector<std::unique_ptr<seda::infer::Inference_engine>> engines;

    [[nodiscard]] seda::infer::Unit_sink& sink(u32 t)
    {
        return timing.empty() ? *sinks[t] : *timing[t];
    }
    [[nodiscard]] seda::runtime::Secure_session& session(u32 t)
    {
        return via_server ? server->tenant(t).session() : *sessions[t];
    }
    void reset_transport()
    {
        engines.clear();
        timing.clear();
        sinks.clear();
        server.reset();
        sessions.clear();
        pool.reset();
    }
};

seda::core::Secure_mem_config mem_config()
{
    seda::core::Secure_mem_config cfg;
    cfg.unit_bytes = seda::infer::Model_binding::k_unit_bytes;
    return cfg;
}

/// Builds the binding, the transport and the engines, and loads both
/// tenants; returns the set-up time.
Setup_time build_rig(Rig& rig, bool via_server, u64 seed, bool traced)
{
    rig.reset_transport();
    rig.binding.reset();
    rig.via_server = via_server;
    rig.seed = seed;
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    rig.binding = std::make_unique<seda::infer::Model_binding>(
        seda::models::model_by_name(k_model), seda::accel::Npu_config::server());
    if (via_server) {
        seda::serve::Server_config cfg;
        cfg.tenants = k_tenants;
        cfg.workers = 1;
        cfg.mem = mem_config();
        rig.server = std::make_unique<seda::serve::Server>(make_key(seed, 0x1FE2),
                                                           make_key(seed, 0x3AC5), cfg);
        rig.server->start();
        for (u32 t = 0; t < k_tenants; ++t)
            rig.sinks.push_back(std::make_unique<seda::infer::Server_sink>(*rig.server, t));
    } else {
        rig.pool = std::make_unique<seda::runtime::Thread_pool>(k_session_workers);
        for (u32 t = 0; t < k_tenants; ++t) {
            rig.sessions.push_back(std::make_unique<seda::runtime::Secure_session>(
                make_key(seed, 0x1FE2 + 0x100 * t), make_key(seed, 0x3AC5 + 0x100 * t),
                mem_config(), *rig.pool));
            rig.sinks.push_back(std::make_unique<seda::infer::Session_sink>(*rig.sessions[t]));
        }
    }
    for (u32 t = 0; t < k_tenants; ++t) {
        rig.engines.push_back(std::make_unique<seda::infer::Inference_engine>(
            *rig.binding, seda::infer::Engine_config{engine_seed(seed, t), 4096}));
        Span span(via_server ? "infer.load.serve" : "infer.load.session");
        rig.engines[t]->load(*rig.sinks[t]);
    }
    const Setup_time setup{seconds_between(t0, Clock::now()), cpu_seconds() - cpu0};
    // Traced runs time the infer -> transport boundary from here on.
    if (traced)
        for (u32 t = 0; t < k_tenants; ++t)
            rig.timing.push_back(std::make_unique<Timing_sink>(
                *rig.sinks[t], via_server ? "infer.sink.serve" : "infer.sink.session"));
    return setup;
}

struct Replay_result {
    Samples infer_us;    ///< per infer() call, both tenants
    /// Consecutive runs of k_calm_window inferences (by start time, both
    /// tenants): the windows the calm latency is taken over.
    std::vector<Samples> windows;
    u64 inferences = 0;
    double wall_s = 0.0;
    u64 bytes = 0;       ///< plaintext moved by the timed inferences
    std::vector<seda::infer::Unit_counters> first;  ///< per tenant, after inference 1
};

/// Both tenants infer back to back until `seconds` have passed.
Replay_result replay(Rig& rig, double seconds, Report& report)
{
    Replay_result res;
    res.first.resize(k_tenants);
    std::vector<std::vector<std::pair<double, double>>> hist(k_tenants);  ///< (start s, us)
    std::vector<u64> count(k_tenants, 0);
    std::vector<u64> bytes_before(k_tenants);
    for (u32 t = 0; t < k_tenants; ++t) bytes_before[t] = rig.engines[t]->stats().totals().bytes;
    const bool traced = Tracer::enabled();

    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    std::vector<Clock::time_point> ended(k_tenants, start);
    const auto tenant_loop = [&](u32 t) {
        seda::infer::Inference_engine& engine = *rig.engines[t];
        seda::infer::Unit_sink& sink = rig.sink(t);
        Timing_sink* timing = traced ? rig.timing[t].get() : nullptr;
        do {
            const bool first = engine.stats().inferences == 0;
            if (timing && t == 0) timing->set_capturing(first);
            const auto t0 = Clock::now();
            {
                Span span(rig.via_server ? "infer.infer.serve" : "infer.infer.session");
                if (timing) timing->set_parent(span.id());
                engine.infer(sink);
            }
            const auto t1 = Clock::now();
            if (timing) timing->set_capturing(false);
            hist[t].emplace_back(seconds_between(start, t0),
                                 std::chrono::duration<double, std::micro>(t1 - t0).count());
            ++count[t];
            ended[t] = t1;
            if (first) res.first[t] = engine.stats().totals();
        } while (Clock::now() < deadline);
    };
    std::thread other(tenant_loop, 1u);
    tenant_loop(0);
    other.join();

    std::vector<std::pair<double, double>> by_start;
    for (u32 t = 0; t < k_tenants; ++t) {
        by_start.insert(by_start.end(), hist[t].begin(), hist[t].end());
        for (const auto& [at, us] : hist[t]) res.infer_us.record(us);
        res.inferences += count[t];
        res.bytes += rig.engines[t]->stats().totals().bytes - bytes_before[t];
        res.wall_s = std::max(res.wall_s, seconds_between(start, ended[t]));
    }
    std::sort(by_start.begin(), by_start.end());
    for (std::size_t i = 0; i + k_calm_window <= by_start.size(); i += k_calm_window) {
        res.windows.emplace_back();
        for (std::size_t j = i; j < i + k_calm_window; ++j)
            res.windows.back().record(by_start[j].second);
    }
    if (res.windows.empty()) res.windows.push_back(res.infer_us);  // a short round is one window
    report.attempt(res.inferences);
    return res;
}

/// Output checks: zero verification failures and mirror mismatches, and
/// the deterministic counters equal to the recorded reference.
void check_engines(Rig& rig, const Replay_result& res, u64 seed, Report& report)
{
    for (u32 t = 0; t < k_tenants; ++t) {
        const auto& st = rig.engines[t]->stats();
        const auto tot = st.totals();
        const u64 n = st.inferences;
        const std::string who = "tenant " + std::to_string(t) + ": ";
        const u64 bad = tot.failures() + tot.data_mismatches + st.load.failures() +
                        st.load.data_mismatches;
        if (bad) report.fail(who + "verification failures or mirror mismatches", bad);
        report.check(st.load.writes == k_ref.load_writes,
                     who + "load writes " + std::to_string(st.load.writes));
        report.check(tot.writes == n * k_ref.writes_per_inf &&
                         tot.reads == n * k_ref.reads_per_inf &&
                         tot.bytes == n * k_ref.bytes_per_inf && tot.ok == tot.writes + tot.reads,
                     who + "per-inference counters (writes " + std::to_string(tot.writes) +
                         ", reads " + std::to_string(tot.reads) + ", bytes " +
                         std::to_string(tot.bytes) + " over " + std::to_string(n) +
                         " inferences)");
        if (seed == k_reference_seed)
            report.check(res.first[t].payload_fold == k_ref.first_fold[t],
                         who + "first-inference payload fold " +
                             std::to_string(res.first[t].payload_fold));
    }
}

/// Tamper and roll back two sampled weight units of each tenant, then a
/// fault campaign.
void infer_gate(Rig& rig, u64 seed, Report& report)
{
    if (rig.server) rig.server->drain();
    const auto weights = rig.binding->weight_load_units();
    seda::Rng rng(seed ^ 0x1AFE6A7EULL);
    Gate_ledger ledger;
    const auto ref = [&](std::size_t i) {
        const Addr a = weights[i % weights.size()];
        const auto ctx = rig.binding->context(a);
        return Unit_ref{a, ctx.layer_id, ctx.fmap_idx, ctx.blk_idx};
    };
    for (u32 t = 0; t < k_tenants; ++t) {
        // Bulk batches come from a run of consecutive weight units, as the
        // engine's own weight reads do.
        std::vector<Unit_ref> pool;
        const std::size_t first = rng.next_below(weights.size());
        for (std::size_t i = 0; i < 2 * k_bulk_units; ++i) pool.push_back(ref(first + i));
        std::vector<Unit_ref> units;
        for (int i = 0; i < 2; ++i) units.push_back(ref(rng.next_below(weights.size())));
        const Unit_io io = rig.via_server ? server_io(*rig.server, t) : session_io(rig.session(t));
        probe_units(rig.session(t).memory(), units, pool, io, rng.next_u64(), report, ledger);
    }
    campaign_gate(seed, report);
}

void run_infer(const Options& opt, bool via_server, Report& report)
{
    // Rounds, each on a freshly built rig; each round's set-up is one set-up
    // sample.  CPU per inference is that of the calmest round (see calm() in
    // bench.h); latency, the median of the calmest window of consecutive
    // inferences, is printed only (README.md: sustained steal).
    Setup_log setups;
    std::vector<double> cpus;
    std::vector<double> p50s;
    std::vector<double> window_p50s;  ///< every window of every round
    std::vector<double> p90s;
    std::vector<double> rates;
    u64 inferences = 0;
    u64 bytes = 0;
    double wall_s = 0.0;
    Samples all;
    for (int r = 0; r < k_rounds; ++r) {
        Rig rig;
        setups.add(build_rig(rig, via_server, opt.seed, false));
        const auto before = rig.server ? rig.server->stats() : seda::serve::Serve_stats{};
        const double cpu0 = cpu_seconds();
        const Replay_result res = replay(rig, opt.seconds / k_rounds, report);
        const double cpu_per_inf = (cpu_seconds() - cpu0) / static_cast<double>(res.inferences);
        const auto after = rig.server ? rig.server->stats() : before;
        check_engines(rig, res, opt.seed, report);
        infer_gate(rig, opt.seed + 1 + static_cast<u64>(r), report);
        p50s.push_back(res.infer_us.percentile(50));
        for (const Samples& w : res.windows) window_p50s.push_back(w.percentile(50));
        p90s.push_back(res.infer_us.percentile(90));
        rates.push_back(static_cast<double>(res.inferences) / res.wall_s);
        cpus.push_back(cpu_per_inf);
        inferences += res.inferences;
        bytes += res.bytes;
        wall_s += res.wall_s;
        all.merge(res.infer_us);

        std::ostringstream os;
        os.precision(5);
        os << (via_server ? "infer_serve" : "infer_session") << " round " << r + 1 << ": "
           << res.inferences << " inferences (2 tenants) in " << res.wall_s
           << " s; infer() p50 " << p50s.back() / 1e3 << " ms, p90 " << p90s.back() / 1e3
           << " ms; process CPU " << cpu_per_inf << " s per inference";
        if (rig.server)
            os << "; " << static_cast<double>(after.requests - before.requests) /
                              static_cast<double>(after.batches - before.batches)
               << " requests per server batch";
        os << "; set-up " << setups.cpu.back() << " CPU s, " << setups.wall.back() << " wall s";
        Report::note(os.str());
        if (r == 0) {
            const auto& f = res.first;
            Report::note("first-inference counters: tenant 0 writes " +
                         std::to_string(f[0].writes) + " reads " + std::to_string(f[0].reads) +
                         " bytes " + std::to_string(f[0].bytes) + " fold " +
                         std::to_string(f[0].payload_fold) + "; tenant 1 fold " +
                         std::to_string(f[1].payload_fold) + "; load writes " +
                         std::to_string(rig.engines[0]->stats().load.writes));
        }
    }

    std::ostringstream os;
    os.precision(5);
    os << (via_server ? "infer_serve" : "infer_session") << ": " << inferences
       << " inferences in " << k_rounds << " rounds; infer() p50 of the calmest of "
       << window_p50s.size() << " windows of " << k_calm_window << " inferences "
       << calm(window_p50s) / 1e3
       << " ms; medians over rounds: p50 "
       << median(p50s) / 1e3 << " ms, p90 " << median(p90s) / 1e3 << " ms; all calls: p50 "
       << all.percentile(50) / 1e3 << " ms, p90 " << all.percentile(90) / 1e3 << " ms, p99 "
       << all.percentile(99) / 1e3 << " ms (info only) over " << all.count()
       << " calls; " << median(rates) << " inferences/s; protected "
       << static_cast<double>(bytes) / 1e6 / wall_s << " MB/s (load excluded); process CPU "
       << median(cpus) * 1e3 << " ms per inference (median over rounds), " << calm(cpus) * 1e3
       << " ms (calmest round)";
    Report::note(os.str());

    Report::note(setups.note());
    report.metric("setup_s", median(setups.cpu), "s");
    report.metric("calm_cpu_us_per_op", calm(cpus) * 1e6, "us");
    report.metric("peak_rss_MB", peak_rss_mb(), "MB");
}

/// Layer ladder below the sink: one captured inference replayed through
/// Secure_session, serial Secure_memory, staging alone and the crypto
/// engines, all on fresh memories loaded the same way.
void below_sink_ladder(Rig& rig, std::vector<Captured>& batches, double seconds, Report& report)
{
    u64 write_units = 0;
    u64 read_units = 0;
    for (const Captured& c : batches) {
        write_units += c.writes.size();
        read_units += c.reads.size();
    }
    if (write_units == 0 || read_units == 0) {
        report.fail("ladder: no inference captured");
        return;
    }
    const auto enc = make_key(rig.seed, 0x1FE2);
    const auto mac = make_key(rig.seed, 0x3AC5);
    const std::int64_t budget = static_cast<std::int64_t>(seconds / 4 * 1e9);
    std::vector<Verify_status> st;

    // Replays `batches` through `sink` until the budget is spent; reads must verify.
    const auto replay_into = [&](seda::infer::Unit_sink& sink, const char* wname,
                                 const char* rname) {
        u64 reps = 0;
        const std::int64_t end = now_ns() + budget;
        do {
            for (Captured& c : batches) {
                if (c.write) {
                    Span span(wname);
                    sink.write_units(c.writes);
                } else {
                    st.assign(c.reads.size(), Verify_status::ok);
                    {
                        Span span(rname);
                        sink.read_units(c.reads, st);
                    }
                    report.attempt(c.reads.size());
                    const auto bad = static_cast<u64>(
                        std::count_if(st.begin(), st.end(),
                                      [](Verify_status s) { return s != Verify_status::ok; }));
                    if (bad) report.fail(std::string("ladder replay: ") + rname, bad);
                }
            }
            ++reps;
        } while (now_ns() < end);
        return reps;
    };
    const auto load_into = [&](seda::infer::Unit_sink& sink) {
        seda::infer::Inference_engine loader(*rig.binding,
                                             {engine_seed(rig.seed, 0), 4096});
        loader.load(sink);
    };

    u64 session_reps = 0;
    {
        seda::runtime::Secure_session session(enc, mac, mem_config(), k_session_workers);
        seda::infer::Session_sink sink(session);
        load_into(sink);
        session_reps = replay_into(sink, "session.write", "session.read");
    }
    u64 core_reps = 0;
    {
        Secure_memory mem(enc, mac, mem_config());
        Memory_sink sink(mem);
        load_into(sink);
        core_reps = replay_into(sink, "core.write", "core.read");
    }
    u64 stage_reps = 0;
    {
        Secure_memory mem(enc, mac, mem_config());
        const std::int64_t end = now_ns() + budget / 2;
        do {
            for (const Captured& c : batches)
                if (c.write) {
                    Span span("core.stage");
                    (void)mem.stage_writes(c.writes);
                }
            ++stage_reps;
        } while (now_ns() < end);
    }
    u64 crypto_reps = 0;
    {
        const seda::crypto::Baes_engine baes(enc);
        const seda::crypto::Hmac_engine hmac(mac);
        std::vector<seda::crypto::Baes_engine::Otp_request> reqs;
        std::vector<seda::crypto::Block16> bases;
        std::vector<seda::crypto::Block16> pads;
        std::vector<u8> cipher;
        std::vector<seda::crypto::Mac_request> mreqs;
        std::vector<u64> macs;
        const std::int64_t end = now_ns() + budget / 2;
        u64 vn = 1;
        do {
            for (const Captured& c : batches) {
                if (!c.write) continue;
                const std::size_t n = c.writes.size();
                const std::size_t ub = c.writes[0].plaintext.size();
                reqs.resize(n);
                bases.resize(n);
                for (std::size_t i = 0; i < n; ++i) reqs[i] = {c.writes[i].addr, vn + i};
                cipher = c.bytes;
                {
                    Span span("crypto.otp");
                    baes.otps_many(reqs, bases);
                    for (std::size_t i = 0; i < n; ++i)
                        baes.crypt_with_base(std::span<u8>(cipher.data() + i * ub, ub),
                                             reqs[i].pa, reqs[i].vn, bases[i], pads);
                }
                mreqs.resize(n);
                macs.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto& w = c.writes[i];
                    mreqs[i] = {std::span<const u8>(cipher.data() + i * ub, ub),
                                {w.addr, vn + i, w.layer_id, w.fmap_idx, w.blk_idx}};
                }
                {
                    Span span("crypto.mac");
                    hmac.positional_macs(mreqs, macs);
                }
                vn += n;
            }
            ++crypto_reps;
        } while (now_ns() < end);
    }

    const auto per_unit = [](const char* name, u64 units, u64 reps) {
        return Tracer::stats(name).ns / static_cast<double>(units * reps);
    };
    const double s_w = per_unit("session.write", write_units, session_reps);
    const double s_r = per_unit("session.read", read_units, session_reps);
    const double c_w = per_unit("core.write", write_units, core_reps);
    const double c_r = per_unit("core.read", read_units, core_reps);
    const double stage = per_unit("core.stage", write_units, stage_reps);
    const double otp = per_unit("crypto.otp", write_units, crypto_reps);
    const double macn = per_unit("crypto.mac", write_units, crypto_reps);
    report.metric("session.write_ns_per_unit", s_w, "ns");
    report.metric("session.read_ns_per_unit", s_r, "ns");
    report.metric("core.write_ns_per_unit", c_w, "ns");
    report.metric("core.read_ns_per_unit", c_r, "ns");
    report.metric("core.stage_ns_per_unit", stage, "ns");
    report.metric("crypto.otp_ns_per_unit", otp, "ns");
    report.metric("crypto.mac_ns_per_unit", macn, "ns");
    // Unattributed remainders of the serial core path.
    report.metric("core.write_other_ns_per_unit", c_w - stage - otp - macn, "ns");
    report.metric("core.read_other_ns_per_unit", c_r - otp - macn, "ns");
    const double wr = static_cast<double>(write_units);
    const double rd = static_cast<double>(read_units);
    report.metric("runtime.shard_speedup", (c_w * wr + c_r * rd) / (s_w * wr + s_r * rd), "x");
    std::ostringstream os;
    os << "below-sink ladder: one inference = " << batches.size() << " calls, " << write_units
       << " write + " << read_units << " read units; replays: session " << session_reps
       << ", core " << core_reps << ", stage " << stage_reps << ", crypto " << crypto_reps;
    Report::note(os.str());
}

}  // namespace

void run_infer_session(const Options& opt, Report& report) { run_infer(opt, false, report); }

void run_infer_serve(const Options& opt, Report& report) { run_infer(opt, true, report); }

double infer_segment(const Options& opt, bool via_server, double seconds, Report& report)
{
    const bool traced = Tracer::enabled();
    Rig rig;
    (void)build_rig(rig, via_server, opt.seed, traced);
    const double replay_s = traced && !via_server ? 0.5 * seconds : seconds;
    const seda::serve::Serve_stats before = rig.server ? rig.server->stats() : seda::serve::Serve_stats{};
    const Replay_result res = replay(rig, replay_s, report);
    const double headline = res.infer_us.percentile(50);
    if (!traced) return headline;
    const seda::serve::Serve_stats after = rig.server ? rig.server->stats() : before;
    check_engines(rig, res, opt.seed, report);
    infer_gate(rig, opt.seed + 2, report);

    const Span_stats inf = Tracer::stats(via_server ? "infer.infer.serve" : "infer.infer.session");
    const Span_stats sink = Tracer::stats(via_server ? "infer.sink.serve" : "infer.sink.session");
    const Span_stats load = Tracer::stats(via_server ? "infer.load.serve" : "infer.load.session");
    u64 calls = 0;
    u64 units = 0;
    for (const auto& t : rig.timing) {
        calls += t->calls();
        units += t->units();
    }
    const double n = static_cast<double>(inf.count);
    const std::string tag = via_server ? ".serve" : ".session";
    // infer() minus its time in the sink: the engine's own work, which is
    // also the unattributed remainder of the infer breakdown.
    report.metric("infer.self_ms" + tag, (inf.ns - sink.ns) / n / 1e6, "ms");
    report.metric("infer.sink_ms" + tag, sink.ns / n / 1e6, "ms");
    report.metric("infer.load_s" + tag, load.ns / static_cast<double>(load.count) / 1e9, "s");
    report.metric("infer.calls_per_inf", static_cast<double>(calls) / n, "count");
    report.metric("infer.units_per_call",
                  static_cast<double>(units) / static_cast<double>(calls), "count");
    report.metric("core.stored_units", static_cast<double>(rig.session(0).memory().unit_count()),
                  "count");
    if (via_server) {
        report.metric("serve.ns_per_unit", sink.ns / static_cast<double>(units), "ns");
        report.metric("serve.reqs_per_batch.infer",
                      static_cast<double>(after.requests - before.requests) /
                          static_cast<double>(after.batches - before.batches),
                      "count");
    }
    std::vector<Captured> captured = std::move(rig.timing[0]->captured());
    rig.reset_transport();
    if (!via_server) below_sink_ladder(rig, captured, 0.5 * seconds, report);
    return headline;
}

}  // namespace perfbench
