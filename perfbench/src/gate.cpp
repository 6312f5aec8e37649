#include "gate.h"

#include <algorithm>
#include <future>
#include <string>

#include "attack/campaign.h"
#include "common/error.h"
#include "common/rng.h"

namespace perfbench {

using seda::core::Verify_status;

Unit_io server_io(seda::serve::Server& server, u32 tenant)
{
    const auto submit_all = [&server, tenant](std::span<const Unit_ref> units,
                                              seda::serve::Op op, std::span<const u8> data) {
        const std::size_t ub = units.empty() ? 0 : data.size() / units.size();
        std::vector<std::future<seda::serve::Response>> futures;
        futures.reserve(units.size());
        for (std::size_t i = 0; i < units.size(); ++i) {
            seda::serve::Request req;
            req.tenant_id = tenant;
            req.op = op;
            req.addr = units[i].addr;
            if (op == seda::serve::Op::write)
                req.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(i * ub),
                                   data.begin() + static_cast<std::ptrdiff_t>((i + 1) * ub));
            req.layer_id = units[i].layer_id;
            req.fmap_idx = units[i].fmap_idx;
            req.blk_idx = units[i].blk_idx;
            futures.push_back(server.submit(std::move(req)));
        }
        return futures;
    };
    Unit_io io;
    io.read = [submit_all](std::span<const Unit_ref> units, std::span<u8> out) {
        auto futures = submit_all(units, seda::serve::Op::read, out);
        const std::size_t ub = out.size() / units.size();
        std::vector<Verify_status> statuses;
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const seda::serve::Response r = futures[i].get();
            if (r.status == Verify_status::ok && r.payload.size() == ub)
                std::copy(r.payload.begin(), r.payload.end(), out.begin() + i * ub);
            statuses.push_back(r.status);
        }
        return statuses;
    };
    io.write = [submit_all](std::span<const Unit_ref> units, std::span<const u8> data) {
        for (auto& f : submit_all(units, seda::serve::Op::write, data)) (void)f.get();
    };
    return io;
}

Unit_io session_io(seda::runtime::Secure_session& session)
{
    Unit_io io;
    io.read = [&session](std::span<const Unit_ref> units, std::span<u8> out) {
        const std::size_t ub = out.size() / units.size();
        std::vector<seda::core::Secure_memory::Unit_read> batch;
        for (std::size_t i = 0; i < units.size(); ++i)
            batch.push_back({units[i].addr, out.subspan(i * ub, ub), units[i].layer_id,
                             units[i].fmap_idx, units[i].blk_idx});
        return session.read_units(batch);
    };
    io.write = [&session](std::span<const Unit_ref> units, std::span<const u8> data) {
        const std::size_t ub = data.size() / units.size();
        std::vector<seda::core::Secure_memory::Unit_write> batch;
        for (std::size_t i = 0; i < units.size(); ++i)
            batch.push_back({units[i].addr, data.subspan(i * ub, ub), units[i].layer_id,
                             units[i].fmap_idx, units[i].blk_idx});
        session.write_units(batch);
    };
    return io;
}

void probe_units(seda::core::Secure_memory& mem, std::span<const Unit_ref> units,
                 std::span<const Unit_ref> pool, const Unit_io& io, u64 seed,
                 Report& report, Gate_ledger& ledger)
{
    seda::Rng rng(seed ^ 0x6A7E6A7EULL);
    const std::size_t ub = mem.config().unit_bytes;
    seda::require(pool.size() >= k_bulk_units, "gate: bulk pool smaller than one batch");

    for (const Unit_ref& u : units) {
        // The attacked unit at a seeded index among consecutive pool units.
        std::vector<Unit_ref> batch;
        const std::size_t first = rng.next_below(pool.size());
        for (std::size_t i = 0; batch.size() + 1 < k_bulk_units; ++i) {
            const Unit_ref& p = pool[(first + i) % pool.size()];
            if (p.addr != u.addr) batch.push_back(p);
        }
        const std::size_t at = rng.next_below(batch.size() + 1);
        batch.insert(batch.begin() + static_cast<std::ptrdiff_t>(at), u);
        const std::span<const Unit_ref> alone(&batch[at], 1);

        std::vector<u8> plain(batch.size() * ub);
        std::vector<u8> got(batch.size() * ub);
        const auto where = [&](const char* what, std::size_t i) {
            return std::string("gate ") + what + " at addr " + std::to_string(batch[i].addr) +
                   " (bulk index " + std::to_string(i) + " of " + std::to_string(batch.size()) +
                   ")";
        };
        // One read of `probe` (the attacked unit alone, or the whole batch):
        // `want` at the attacked unit, ok and its plaintext everywhere else.
        // A miss anywhere fails the read.
        const auto expect = [&](std::span<const Unit_ref> probe, Verify_status want,
                                const char* what) {
            report.attempt();
            const std::span<u8> out(got.data(), probe.size() * ub);
            const std::vector<Verify_status> st = io.read(probe, out);
            for (std::size_t i = 0; i < probe.size(); ++i) {
                const std::size_t b = probe.size() == 1 ? at : i;
                const Verify_status w = b == at ? want : Verify_status::ok;
                if (st.at(i) != w) {
                    report.fail(where(what, b) + ": read " + seda::core::to_string(st[i]) +
                                ", expected " + seda::core::to_string(w));
                    return;
                }
                if (w == Verify_status::ok &&
                    !std::equal(out.begin() + static_cast<std::ptrdiff_t>(i * ub),
                                out.begin() + static_cast<std::ptrdiff_t>((i + 1) * ub),
                                plain.begin() + static_cast<std::ptrdiff_t>(b * ub))) {
                    report.fail(where(what, b) + ": reads back different plaintext");
                    return;
                }
            }
        };

        report.attempt();
        const std::vector<Verify_status> before = io.read(batch, plain);
        if (std::any_of(before.begin(), before.end(),
                        [](Verify_status st) { return st != Verify_status::ok; })) {
            report.fail(where("pre-attack", at) + ": batch does not verify before attack");
            continue;
        }

        const auto intact = mem.snapshot(u.addr);
        mem.tamper(u.addr, rng.next_below(ub), static_cast<u8>(1u << rng.next_below(8)));
        ledger.mac_mismatch += 2;
        expect(alone, Verify_status::mac_mismatch, "tamper");
        expect(batch, Verify_status::mac_mismatch, "tamper (bulk)");
        mem.rollback(u.addr, intact);
        expect(alone, Verify_status::ok, "tamper-restore");

        const auto older = mem.snapshot(u.addr);
        io.write(batch, plain);  // same plaintexts, fresh version numbers
        const auto newer = mem.snapshot(u.addr);
        mem.rollback(u.addr, older);
        ledger.replay_detected += 2;
        expect(alone, Verify_status::replay_detected, "rollback");
        expect(batch, Verify_status::replay_detected, "rollback (bulk)");
        mem.rollback(u.addr, newer);
        expect(batch, Verify_status::ok, "rollback-restore (bulk)");
    }
}

void campaign_gate(u64 seed, Report& report)
{
    seda::attack::Campaign_config cfg;
    cfg.seed = seed;
    cfg.tenants = 2;  // control + one victim: the smallest campaign
    cfg.faults = 6;
    cfg.clients = 1;
    cfg.requests = 8;
    cfg.jobs = 1;
    const seda::attack::Campaign_result r = seda::attack::run_campaign(cfg);
    const u64 expected = r.expected_mac_mismatch + r.expected_replay_detected;
    const u64 detected = r.detected_mac_mismatch + r.detected_replay_detected;
    report.attempt();
    if (!r.clean() || detected != expected || expected == 0)
        report.fail("gate: fault campaign (seed " + std::to_string(seed) + ") injected " +
                    std::to_string(r.plan.faults.size()) + " fault(s), expected " +
                    std::to_string(expected) + " detection(s), saw " +
                    std::to_string(detected) + (r.clean() ? "" : "; ledger not clean"));
}

}  // namespace perfbench
