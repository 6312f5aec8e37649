// Randomized memory-adversary fuzzing against Secure_memory.
//
// A golden (in-core, trusted) copy of every unit runs alongside the secure
// memory.  The fuzzer interleaves honest writes with random attacks
// (tamper / swap / rollback) and checks the core integrity property after
// every read:
//
//     verified-ok  ==>  the returned plaintext equals the golden copy.
//
// With on-chip VNs no attack may break it (any corruption must surface as
// mac_mismatch / replay_detected).  With off-chip VNs the rollback attack
// must break it at least once -- demonstrating that freshness is load-
// bearing, not belt-and-braces.
//
// The batch half feeds seeded hostile batches through both the serial
// Secure_memory batch API and the sharded runtime::Secure_session: bad
// alignment, wrong-size spans, in-batch duplicates, unwritten units, runs
// across page boundaries and far-apart regions (up to the top of the
// address space), interleaved with swap/rollback attacks.  A batch that
// throws must leave the stored state -- MAC fold, unit count, every stored
// unit and every on-chip VN -- exactly as it found it.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/secure_memory.h"
#include "runtime/secure_session.h"

namespace seda::core {

/// Test access to the stage_writes generation counter, so one test can
/// force the wrap-around that 2^32 real batches would take.
struct Secure_memory_test_peer {
    static void set_stamp_gen(Secure_memory& mem, u32 gen) { mem.stamp_gen_ = gen; }
};

namespace {

struct Fuzz_world {
    Secure_memory mem;
    std::map<Addr, std::vector<u8>> golden;       ///< what the victim last wrote
    std::map<Addr, Secure_memory::Stored_unit> stash;  ///< attacker snapshots
    Rng rng;

    explicit Fuzz_world(bool onchip_vns, u64 seed)
        : mem(std::vector<u8>(16, 0x5E), std::vector<u8>(16, 0xDA),
              [&] {
                  Secure_memory::Config cfg;
                  cfg.onchip_vns = onchip_vns;
                  return cfg;
              }()),
          rng(seed)
    {
    }

    [[nodiscard]] Addr random_addr() { return 0x1000 + rng.next_below(16) * 64; }

    void honest_write()
    {
        const Addr a = random_addr();
        std::vector<u8> data(64);
        for (auto& b : data) b = rng.next_byte();
        mem.write(a, data, 0, 0, static_cast<u32>(a / 64));
        golden[a] = std::move(data);
    }

    /// Returns true when the integrity property was violated.
    bool checked_read(Addr a)
    {
        std::vector<u8> out(64);
        const auto status = mem.read(a, out, 0, 0, static_cast<u32>(a / 64));
        return status == Verify_status::ok && out != golden.at(a);
    }
};

class AdversaryFuzzTest : public ::testing::TestWithParam<u64> {};

TEST_P(AdversaryFuzzTest, OnchipVnsNeverAcceptCorruptData)
{
    Fuzz_world w(/*onchip_vns=*/true, GetParam());
    for (int i = 0; i < 32; ++i) w.honest_write();

    for (int step = 0; step < 600; ++step) {
        const u64 action = w.rng.next_below(6);
        const Addr a = w.random_addr();
        switch (action) {
            case 0:
            case 1: w.honest_write(); break;
            case 2:
                if (w.golden.count(a))
                    w.mem.tamper(a, w.rng.next_below(64), static_cast<u8>(1 + w.rng.next_below(255)));
                break;
            case 3: {
                const Addr b = w.random_addr();
                if (a != b && w.golden.count(a) && w.golden.count(b)) w.mem.swap_units(a, b);
                break;
            }
            case 4:
                if (w.golden.count(a)) w.stash[a] = w.mem.snapshot(a);
                break;
            case 5:
                if (w.stash.count(a)) w.mem.rollback(a, w.stash.at(a));
                break;
        }
        // Victim reads a random written unit; a verified-ok read must match
        // the golden copy regardless of what the adversary did.
        const Addr r = w.random_addr();
        if (w.golden.count(r)) {
            ASSERT_FALSE(w.checked_read(r)) << "corrupt data accepted at step " << step;
        }
    }
}

TEST_P(AdversaryFuzzTest, OffchipVnsFallToReplay)
{
    // The strawman accepts stale data under the same adversary: run until a
    // rollback lands after a newer honest write and the property breaks.
    Fuzz_world w(/*onchip_vns=*/false, GetParam());
    for (int i = 0; i < 8; ++i) w.honest_write();

    bool violated = false;
    for (int step = 0; step < 2000 && !violated; ++step) {
        const Addr a = w.random_addr();
        switch (w.rng.next_below(3)) {
            case 0:
                if (w.golden.count(a)) w.stash[a] = w.mem.snapshot(a);
                break;
            case 1: w.honest_write(); break;
            case 2:
                if (w.stash.count(a)) w.mem.rollback(a, w.stash.at(a));
                break;
        }
        for (const auto& [addr, data] : w.golden) {
            (void)data;
            if (w.checked_read(addr)) {
                violated = true;
                break;
            }
        }
    }
    EXPECT_TRUE(violated) << "replay never succeeded against off-chip VNs "
                             "(expected the strawman to fail)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversaryFuzzTest,
                         ::testing::Values(1u, 42u, 0xFEEDu, 0xC0FFEEu));

// ---- hostile batches ---------------------------------------------------

constexpr Bytes k_unit = 64;
constexpr Addr k_page_span = 1024 * k_unit;  // one store page of 64 B units
constexpr std::size_t k_region_units = 16;

/// Region bases: the bottom of the address space, two runs straddling a
/// page boundary, a far page, and the last 16 units below Addr max.
constexpr Addr k_regions[] = {
    0,
    k_page_span - 8 * k_unit,
    0x8000'0000 - 8 * k_unit,
    0xA000'0000,
    (std::numeric_limits<Addr>::max() & ~(k_unit - 1)) - (k_region_units - 1) * k_unit,
};

/// Everything a rejected batch must leave untouched.
struct Store_state {
    u64 fold = 0;
    std::size_t units = 0;
    std::map<Addr, Secure_memory::Stored_unit> cells;

    bool operator==(const Store_state& o) const
    {
        if (fold != o.fold || units != o.units || cells.size() != o.cells.size()) return false;
        for (const auto& [a, u] : cells) {
            const auto& v = o.cells.at(a);
            if (u.ciphertext != v.ciphertext || u.mac != v.mac || u.stored_vn != v.stored_vn)
                return false;
        }
        return true;
    }
};

struct Batch_world {
    runtime::Secure_session session;
    bool sharded;
    std::map<Addr, std::vector<u8>> golden;  ///< last honest payload per unit
    std::set<Addr> dirty;                    ///< attacked since last written
    std::map<Addr, Secure_memory::Stored_unit> stash;
    Rng rng;

    Batch_world(bool sharded_path, u64 seed)
        : session(std::vector<u8>(16, 0x3C), std::vector<u8>(16, 0xA7), {}, 3),
          sharded(sharded_path),
          rng(seed)
    {
    }

    Secure_memory& mem() { return session.memory(); }

    void write(std::span<const Secure_memory::Unit_write> b)
    {
        sharded ? session.write_units(b) : mem().write_units(b);
    }
    std::vector<Verify_status> read(std::span<const Secure_memory::Unit_read> b)
    {
        return sharded ? session.read_units(b) : mem().read_units(b);
    }

    [[nodiscard]] Addr random_unit()
    {
        const Addr base = k_regions[rng.next_below(std::size(k_regions))];
        return base + rng.next_below(k_region_units) * k_unit;
    }

    [[nodiscard]] Store_state state()
    {
        Store_state st{mem().fold_all_macs(), mem().unit_count(), {}};
        for (const auto& [a, data] : golden) st.cells[a] = mem().snapshot(a);
        return st;
    }

    /// Builds `n` honest entries (payloads owned by `store`); `dup_every`
    /// >= 2 makes every dup_every-th entry repeat an earlier address.
    std::vector<Secure_memory::Unit_write> honest_batch(std::size_t n,
                                                        std::vector<std::vector<u8>>& store,
                                                        std::size_t dup_every = 0)
    {
        store.assign(n, std::vector<u8>(k_unit));
        std::vector<Secure_memory::Unit_write> batch;
        // A contiguous run from a random unit: crosses page boundaries in
        // the straddling regions and wraps region-local offsets otherwise.
        const Addr base = k_regions[rng.next_below(std::size(k_regions))];
        const std::size_t start = rng.next_below(k_region_units);
        for (std::size_t i = 0; i < n; ++i) {
            for (auto& b : store[i]) b = rng.next_byte();
            Addr a = base + ((start + i) % k_region_units) * k_unit;
            if (rng.next_below(4) == 0) a = random_unit();
            if (dup_every != 0 && (i + 1) % dup_every == 0)
                a = batch[rng.next_below(i)].addr;
            batch.push_back({a, store[i], 1, 0, static_cast<u32>(a / k_unit)});
        }
        return batch;
    }

    void commit(std::span<const Secure_memory::Unit_write> batch)
    {
        write(batch);
        for (const auto& w : batch) {
            golden[w.addr].assign(w.plaintext.begin(), w.plaintext.end());
            dirty.erase(w.addr);
        }
    }

    /// Reads every golden unit in one batch: an ok unit must match the
    /// golden copy, and an unattacked unit must verify.
    void check_reads()
    {
        std::vector<std::vector<u8>> out(golden.size(), std::vector<u8>(k_unit));
        std::vector<Secure_memory::Unit_read> batch;
        std::size_t i = 0;
        for (const auto& [a, data] : golden)
            batch.push_back({a, out[i++], 1, 0, static_cast<u32>(a / k_unit)});
        const auto st = read(batch);
        i = 0;
        for (const auto& [a, data] : golden) {
            if (st[i] == Verify_status::ok) {
                EXPECT_EQ(out[i], data) << "corrupt data accepted at " << a;
            }
            if (!dirty.count(a)) {
                EXPECT_EQ(st[i], Verify_status::ok) << "unit " << a;
            }
            ++i;
        }
    }
};

class HostileBatchTest : public ::testing::TestWithParam<std::tuple<bool, u64>> {};

TEST_P(HostileBatchTest, RejectedBatchesLeaveNoTrace)
{
    const auto [sharded, seed] = GetParam();
    Batch_world w(sharded, seed);
    std::vector<std::vector<u8>> store;
    w.commit(w.honest_batch(3 * k_region_units, store));

    for (int step = 0; step < 120; ++step) {
        const std::size_t n = 1 + w.rng.next_below(w.rng.next_below(4) == 0 ? 200 : 8);
        switch (w.rng.next_below(6)) {
            case 0:
            case 1:
                w.commit(w.honest_batch(n, store, w.rng.next_below(3) == 0 ? 3 : 0));
                break;
            case 2: {
                // A poisoned write batch: one entry misaligned or wrong-size.
                auto batch = w.honest_batch(n, store, 2);
                auto& bad = batch[w.rng.next_below(batch.size())];
                std::vector<u8> odd(w.rng.next_below(2) == 0 ? k_unit - 1 : k_unit + 1);
                switch (w.rng.next_below(3)) {
                    case 0: bad.addr += 1 + w.rng.next_below(k_unit - 1); break;
                    case 1: bad.plaintext = odd; break;
                    case 2: bad.plaintext = {}; break;
                }
                const Store_state before = w.state();
                EXPECT_THROW(w.write(batch), Seda_error);
                EXPECT_TRUE(w.state() == before) << "rejected write mutated, step " << step;
                break;
            }
            case 3: {
                // A poisoned read batch: an unwritten unit, a misaligned
                // address or a wrong-size output in the middle.
                std::vector<std::vector<u8>> out(n + 2, std::vector<u8>(k_unit, 0xEE));
                std::vector<Secure_memory::Unit_read> batch;
                auto it = w.golden.begin();
                for (std::size_t i = 0; i < n + 2; ++i, ++it) {
                    if (it == w.golden.end()) it = w.golden.begin();
                    batch.push_back({it->first, out[i], 1, 0,
                                     static_cast<u32>(it->first / k_unit)});
                }
                auto& bad = batch[1 + w.rng.next_below(n)];
                std::vector<u8> odd(k_unit * 2);
                switch (w.rng.next_below(3)) {
                    case 0: {
                        Addr a = w.random_unit();
                        while (w.golden.count(a)) a = w.random_unit() + 0x40'0000;
                        bad.addr = a;
                        break;
                    }
                    case 1: bad.addr += 8; break;
                    case 2: bad.out = odd; break;
                }
                const Store_state before = w.state();
                EXPECT_THROW((void)w.read(batch), Seda_error);
                EXPECT_TRUE(w.state() == before) << "rejected read mutated, step " << step;
                // The serial path validates before touching any output.
                if (!sharded) {
                    for (const auto& o : out)
                        EXPECT_EQ(o, std::vector<u8>(k_unit, 0xEE)) << "step " << step;
                }
                break;
            }
            case 4: {
                // Cross-page attacks between batches.
                const Addr a = w.random_unit();
                const Addr b = w.random_unit();
                if (!w.golden.count(a) || !w.golden.count(b)) break;
                if (w.rng.next_below(2) == 0) {
                    w.mem().swap_units(a, b);
                    if (a != b && w.golden.at(a) != w.golden.at(b)) w.dirty.insert({a, b});
                } else if (w.stash.count(a)) {
                    w.mem().rollback(a, w.stash.at(a));
                    w.dirty.insert(a);
                } else {
                    w.stash[a] = w.mem().snapshot(a);
                }
                break;
            }
            case 5: w.check_reads(); break;
        }
    }
    w.check_reads();
}

TEST_P(HostileBatchTest, InBatchDuplicatesMatchSerialWrites)
{
    const auto [sharded, seed] = GetParam();
    for (const std::size_t n : {2u, 64u, 65u, 3000u}) {
        Batch_world w(sharded, seed + n);
        Secure_memory reference(std::vector<u8>(16, 0x3C), std::vector<u8>(16, 0xA7));
        std::vector<std::vector<u8>> store;
        const auto batch = w.honest_batch(n, store, 2);
        w.commit(batch);
        for (const auto& u : batch) reference.write(u.addr, u.plaintext, u.layer_id,
                                                    u.fmap_idx, u.blk_idx);
        EXPECT_EQ(w.mem().fold_all_macs(), reference.fold_all_macs()) << "n=" << n;
        EXPECT_EQ(w.mem().unit_count(), reference.unit_count()) << "n=" << n;
        for (const auto& [a, data] : w.golden) {
            const auto x = w.mem().snapshot(a);
            const auto y = reference.snapshot(a);
            EXPECT_EQ(x.ciphertext, y.ciphertext) << "n=" << n << " unit " << a;
            EXPECT_EQ(x.mac, y.mac) << "n=" << n << " unit " << a;
            EXPECT_EQ(x.stored_vn, y.stored_vn) << "n=" << n << " unit " << a;
        }
        w.check_reads();

        // The same duplicates with one poisoned entry last: nothing lands.
        auto poisoned = w.honest_batch(n, store, 2);
        poisoned.back().addr += 4;
        const Store_state before = w.state();
        EXPECT_THROW(w.write(poisoned), Seda_error) << "n=" << n;
        EXPECT_TRUE(w.state() == before) << "n=" << n;
        w.check_reads();
    }
}

INSTANTIATE_TEST_SUITE_P(PathsAndSeeds, HostileBatchTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(3u, 0xBADu)));

TEST(HostileBatch, StampGenerationWrapForgetsOldBatches)
{
    // Without the clear on wrap, the first batch's stamps equal the
    // generation after the wrap: B would index a slot that no longer
    // exists and A would supersede B, leaving B never encrypted.
    const std::vector<u8> enc(16, 0x11), mac(16, 0x22);
    Secure_memory mem(enc, mac);
    Secure_memory reference(enc, mac);
    const Addr a = 0x2000, b = 0x2040, c = 0x9'0000;
    const std::vector<u8> p1(k_unit, 1), p2(k_unit, 2), p3(k_unit, 3);
    const auto both = [&](std::span<const Secure_memory::Unit_write> batch) {
        mem.write_units(batch);
        reference.write_units(batch);
    };
    both(std::vector<Secure_memory::Unit_write>{{a, p1, 0, 0, 0}, {b, p1, 0, 0, 1}});
    Secure_memory_test_peer::set_stamp_gen(mem, std::numeric_limits<u32>::max() - 1);
    both(std::vector<Secure_memory::Unit_write>{{c, p2, 0, 0, 2}});
    both(std::vector<Secure_memory::Unit_write>{{b, p3, 0, 0, 1}, {a, p3, 0, 0, 0}});

    EXPECT_EQ(mem.fold_all_macs(), reference.fold_all_macs());
    for (const auto& [addr, blk, want] :
         {std::tuple{a, 0u, &p3}, std::tuple{b, 1u, &p3}, std::tuple{c, 2u, &p2}}) {
        std::vector<u8> out(k_unit);
        EXPECT_EQ(mem.read(addr, out, 0, 0, blk), Verify_status::ok) << addr;
        EXPECT_EQ(out, *want) << addr;
    }
}

}  // namespace
}  // namespace seda::core
