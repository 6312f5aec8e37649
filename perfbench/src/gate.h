// Security gate: untimed checks run after every timed phase, so a change
// that gets faster by skipping verification fails the benchmark.
//
// Each probed unit is attacked through Secure_memory's attacker interface
// (the untrusted side of the threat model) and read back through the same
// transport the workload uses:
//   tamper   - flip one ciphertext bit; the read must report mac_mismatch;
//   rollback - re-write the unit, then restore the older stored copy; the
//              read must report replay_detected.
// Every attack is read back twice: alone, and inside a bulk batch of
// k_bulk_units of the tenant's units, large enough that a session shards it
// over its pool and MACs it in multi-lane waves -- the path bulk traffic
// takes.  The bulk read must report the attack at the attacked index and
// `ok` with the right plaintext everywhere else.  The rollback's re-write
// is a bulk write for the same reason.  After each attack the unit is
// restored and must read back its plaintext, so the workload continues on
// intact memory.  A small seeded fault campaign (attack::run_campaign) must
// then come back clean with every injected fault detected.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "bench.h"
#include "core/secure_memory.h"
#include "runtime/secure_session.h"
#include "serve/server.h"

namespace perfbench {

struct Unit_ref {
    Addr addr = 0;
    u32 layer_id = 0;
    u32 fmap_idx = 0;
    u32 blk_idx = 0;
};

/// Units in a bulk probe batch: above the 64-unit batch a Secure_session
/// still handles inline on the calling thread.
inline constexpr std::size_t k_bulk_units = 128;

/// Batched protected I/O through a workload's transport; unit i's bytes are
/// the i-th unit_bytes slice of the buffer.
struct Unit_io {
    std::function<std::vector<seda::core::Verify_status>(std::span<const Unit_ref>,
                                                         std::span<u8>)>
        read;
    std::function<void(std::span<const Unit_ref>, std::span<const u8>)> write;
};

[[nodiscard]] Unit_io server_io(seda::serve::Server& server, u32 tenant);
[[nodiscard]] Unit_io session_io(seda::runtime::Secure_session& session);

/// Reads of attacked units the gate made (each must have been detected).
struct Gate_ledger {
    u64 mac_mismatch = 0;
    u64 replay_detected = 0;
};

/// Tamper and roll back every unit in `units` of `mem`, reading through
/// `io`; bulk batches are filled from `pool`, distinct intact units of the
/// same tenant (at least k_bulk_units).  Every miss is a failed op.
void probe_units(seda::core::Secure_memory& mem, std::span<const Unit_ref> units,
                 std::span<const Unit_ref> pool, const Unit_io& io, u64 seed,
                 Report& report, Gate_ledger& ledger);

/// A small seeded fault campaign; must be clean with detected == injected.
void campaign_gate(u64 seed, Report& report);

}  // namespace perfbench
