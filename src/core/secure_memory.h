// Functional model of SeDA's protected off-chip memory.
//
// Unlike the trace-level simulators (which price traffic and time), this
// class *runs the real crypto* on real bytes: writes encrypt with B-AES,
// bump the on-chip version number and store a positional MAC; reads decrypt
// and verify.  The untrusted side of the threat model is explicit: the
// attacker interface mutates, swaps, or rolls back stored units exactly the
// way a bus/memory adversary would (Sec. II-D), and the tests assert which
// attacks each configuration catches:
//
//   tampering      - caught by the MAC (any configuration)
//   re-permutation - caught by the positional MAC binding PA/layer/blk
//   replay         - caught only with freshness on (on-chip VNs); with VNs
//                    stored in the untrusted memory itself, rollback wins,
//                    which is precisely why MGX/TNPU/SeDA keep them on-chip.
//
// Storage is a dense, paged unit store, laid out the way the hardware
// keeps its metadata (cf. protect/unit_scheme.cpp:mac_slot_addr): unit
// number = addr / unit_bytes selects a page (k_page_units units) and a slot
// in it.  A page holds one ciphertext slab (k_page_units * unit_bytes bytes,
// never zero-filled) plus per-slot arrays: the stored MAC and stored VN
// (the untrusted side) and the on-chip VN (the trusted side; 0 = never
// written, so no separate presence flag exists).  Pages are allocated on
// first write and never move, so slot pointers handed out by stage_writes
// and read by concurrent read_units_with shards stay valid.  The attacker
// interface below views and mutates exactly these cells.
//
// Tile transfers go through the batch interface (write_units / read_units;
// write() / read() are one-entry batches): one call per tile stages every
// unit by index arithmetic, produces every base OTP with one bulk AES call,
// streams every unit MAC through the bulk HMAC pipeline
// (crypto::Hmac_engine::positional_macs), and is bit-for-bit identical to
// issuing the same units one write()/read() at a time
// (tests/core/secure_memory_batch_test.cpp holds both properties).
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/verify_status.h"
#include "crypto/baes.h"
#include "crypto/mac.h"
#include "dram/dram_tap.h"

namespace seda::core {

struct Secure_mem_config {
    Bytes unit_bytes = 64;  ///< protection-unit size (one MAC per unit)
    /// true: VNs live on-chip (replay-protected).  false: the VN is
    /// stored next to the unit in untrusted memory -- rollback becomes
    /// invisible (the vulnerable strawman).
    bool onchip_vns = true;
};

class Secure_memory {
public:
    using Config = Secure_mem_config;

    /// A unit as the attacker sees it: ciphertext + stored metadata.
    struct Stored_unit {
        std::vector<u8> ciphertext;
        u64 mac = 0;
        u64 stored_vn = 0;  ///< only meaningful when !onchip_vns
    };

    /// One unit of a batch write: unit-aligned address, unit-sized payload.
    struct Unit_write {
        Addr addr = 0;
        std::span<const u8> plaintext;
        u32 layer_id = 0;
        u32 fmap_idx = 0;
        u32 blk_idx = 0;
    };

    /// One unit of a batch read: unit-aligned address, unit-sized out buffer.
    struct Unit_read {
        Addr addr = 0;
        std::span<u8> out;
        u32 layer_id = 0;
        u32 fmap_idx = 0;
        u32 blk_idx = 0;
    };

    Secure_memory(std::span<const u8> enc_key, std::span<const u8> mac_key,
                  Config cfg = Config());

    /// Encrypts and stores one unit-aligned, unit-sized write.  The version
    /// number increments per write (Eq. 1); position fields bind the MAC
    /// (Alg. 2 defense).
    void write(Addr addr, std::span<const u8> plaintext, u32 layer_id, u32 fmap_idx,
               u32 blk_idx);

    /// Reads, decrypts and verifies one unit.  `out` must be unit-sized.
    [[nodiscard]] Verify_status read(Addr addr, std::span<u8> out, u32 layer_id,
                                     u32 fmap_idx, u32 blk_idx);

    /// Batch write: one tile transfer's worth of units in a single call.
    /// Equivalent to write() per entry, in order, with the per-unit setup
    /// amortized across the batch.
    void write_units(std::span<const Unit_write> batch);

    /// Batch read: verifies and decrypts every entry, returning one status
    /// per unit (tamper/replay detection still fires per unit inside the
    /// batch).  Equivalent to read() per entry, in order.
    [[nodiscard]] std::vector<Verify_status> read_units(std::span<const Unit_read> batch);

    // ---- sharded-batch building blocks (runtime::Secure_session) ---------
    //
    // A batch write splits into a cheap serial phase that touches the unit
    // store (VN bump + slot location, preserving write() ordering semantics)
    // and an expensive crypto phase over disjoint slots that is safe to fan
    // out across workers.  Reads need no staging: verify-and-decrypt is
    // const once engines are supplied by the caller.

    /// Destination of one staged batch entry: the unit's slab and MAC cells
    /// plus the VN it is written under.  `src == nullptr` marks an entry
    /// superseded by a later write to the same address in the same batch
    /// (its VN bump already happened; only the final payload is encrypted,
    /// exactly as serial ordering would leave it).
    struct Write_slot {
        const Unit_write* src = nullptr;
        u8* ciphertext = nullptr;
        u64* mac = nullptr;
        u64 vn = 0;
    };

    /// Serial phase of a sharded batch write: validates every entry (a bad
    /// entry throws before anything is mutated), bumps per-unit VNs and
    /// locates destination slots.  Callers must run encrypt_slots() on the
    /// returned slots before the memory is read or staged again; the span
    /// views member scratch that the next stage_writes() reuses.
    [[nodiscard]] std::span<const Write_slot> stage_writes(std::span<const Unit_write> batch);

    /// Reusable scratch for the bulk crypto paths (encrypt_slots /
    /// read_units_with): the B-AES pad buffer plus the staging vectors the
    /// bulk OTP and HMAC pipelines consume.  One instance belongs to exactly
    /// one thread at a time; runtime::Secure_session keeps one per worker and
    /// reuses it across batches, so the steady-state serving path stops
    /// allocating per call.
    struct Bulk_scratch {
        std::vector<crypto::Block16> pads;     ///< B-AES pad fan-out
        std::vector<crypto::Mac_request> reqs; ///< bulk-MAC inputs
        std::vector<u64> macs;                 ///< bulk-MAC outputs
        std::vector<crypto::Baes_engine::Otp_request> otp_reqs;  ///< base-OTP batch inputs
        std::vector<crypto::Block16> otps;     ///< batched base OTPs (otps_many)
        struct Located {
            const u8* ciphertext = nullptr;
            u64 mac = 0;
            u64 stored_vn = 0;
            u64 vn = 0;  ///< the VN the unit is verified under
        };
        std::vector<Located> located;          ///< read side: found units + VNs
    };

    /// Parallel-safe phase over a contiguous run of staged slots: every
    /// live slot's base OTP in one bulk AES call, B-AES per slot, then all
    /// their MACs through the HMAC engine's multi-buffer pipeline in one
    /// call.  `baes` and `hmac` may be per-worker engines, as long as they
    /// are keyed with this memory's keys; shards of one staging touch
    /// disjoint slots, so they may run concurrently on distinct engine pairs
    /// (Secure_session does).
    static void encrypt_slots(std::span<const Write_slot> slots,
                              const crypto::Baes_engine& baes,
                              const crypto::Hmac_engine& hmac, Bulk_scratch& scratch);

    /// Bulk verify-and-decrypt against caller-supplied engines: validates
    /// and locates every entry up front (a bad entry throws before any
    /// output byte is written), computes all expected MACs through the bulk
    /// HMAC pipeline and the verified units' base OTPs in one bulk AES call,
    /// then decrypts per unit into the outputs with one status per entry in
    /// `out_status` (same size as `batch`).  Const and store-read-only, so
    /// disjoint-output calls may run concurrently (no concurrent writer
    /// allowed).
    void read_units_with(std::span<const Unit_read> batch,
                         const crypto::Baes_engine& baes,
                         const crypto::Hmac_engine& hmac, Bulk_scratch& scratch,
                         std::span<Verify_status> out_status) const;

    /// XOR-fold of all stored unit MACs: the layer/model MAC the verifier
    /// compares after streaming a region (Fig. 3(b)).
    [[nodiscard]] u64 fold_all_macs() const;

    [[nodiscard]] const Config& config() const { return cfg_; }
    [[nodiscard]] std::size_t unit_count() const { return unit_count_; }

    // ---- attacker interface (untrusted memory / bus adversary) ----------

    /// Flips bits inside a stored unit's ciphertext.
    void tamper(Addr addr, std::size_t byte_offset, u8 xor_mask);

    /// Swaps two stored units wholesale (ciphertext + metadata), the RePA
    /// move at memory level.
    void swap_units(Addr a, Addr b);

    /// Copies the current stored state of a unit (attacker snapshot).
    [[nodiscard]] Stored_unit snapshot(Addr addr) const;

    /// Restores a previously snapshotted unit (replay / rollback attack).
    void rollback(Addr addr, const Stored_unit& old);

    /// Flips bits of a stored unit's MAC word (integrity-metadata fault).
    void corrupt_mac(Addr addr, u64 xor_mask);

    // ---- bus-adversary tap (dram/dram_tap.h) ----------------------------

    /// Installs (nullptr clears) the adversary tap.  Safe while traffic
    /// runs: the pointer is atomic and pull_dram_tap() only fires on the
    /// thread that owns the memory for the current flush.
    void set_dram_tap(dram::Dram_tap* tap) { tap_.store(tap, std::memory_order_release); }

    /// Gives an installed tap its injection window.  Called by the bulk
    /// entry points (runtime::Secure_session) and the serving layer's
    /// per-request fallback at the head of each flush, before any unit is
    /// staged or verified; near-free when no tap is installed.
    void pull_dram_tap()
    {
        if (dram::Dram_tap* tap = tap_.load(std::memory_order_acquire)) tap->pull();
    }

private:
    /// Units per page: serve::Server's 256 slots per tenant fit in one.
    static constexpr std::size_t k_page_units = 1024;

    /// One page of the unit store (see the header comment).
    struct Page {
        explicit Page(Bytes unit_bytes)
            : slab(std::make_unique_for_overwrite<u8[]>(k_page_units * unit_bytes))
        {
        }
        std::unique_ptr<u8[]> slab;  ///< ciphertexts, unit_bytes per slot
        std::array<u64, k_page_units> mac{};
        std::array<u64, k_page_units> stored_vn{};  ///< only read when !onchip_vns
        std::array<u64, k_page_units> onchip_vn{};  ///< trusted; 0 = never written
        std::array<u32, k_page_units> stamp{};      ///< stage_writes generation
        std::array<u32, k_page_units> last_slot{};  ///< batch index at that stamp
    };

    /// A written unit's page and slot.
    struct Cell {
        Page* page = nullptr;
        std::size_t slot = 0;
    };

    [[nodiscard]] static crypto::Mac_context context_for(Addr addr, u64 vn, u32 layer_id,
                                                         u32 fmap_idx, u32 blk_idx);
    /// The written unit at `addr`; throws "<who>: unit never written".
    /// `page_no`/`page` cache the last page, since batches are contiguous.
    [[nodiscard]] Cell find(Addr addr, const char* who, u64& page_no, Page*& page) const;
    [[nodiscard]] Cell find(Addr addr, const char* who) const;
    [[nodiscard]] u8* ciphertext(Cell c) const
    {
        return c.page->slab.get() + c.slot * cfg_.unit_bytes;
    }

    Config cfg_;
    crypto::Baes_engine baes_;
    crypto::Hmac_engine hmac_;  ///< precomputed-key MAC engine
    std::unordered_map<u64, std::unique_ptr<Page>> pages_;  ///< page number -> page
    std::size_t unit_count_ = 0;
    u32 stamp_gen_ = 0;                   ///< current stage_writes generation
    std::vector<Write_slot> staged_;      ///< stage_writes' returned slots
    Bulk_scratch scratch_;                ///< write_units / read_units crypto scratch
    std::atomic<dram::Dram_tap*> tap_{nullptr};  ///< bus-adversary seam

    friend struct Secure_memory_test_peer;  ///< tests force stamp_gen_ to wrap
};

}  // namespace seda::core
