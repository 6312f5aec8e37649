#include "core/secure_memory.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bitutil.h"
#include "common/error.h"
#include "obs/stage.h"

namespace seda::core {

Secure_memory::Secure_memory(std::span<const u8> enc_key, std::span<const u8> mac_key,
                             Config cfg)
    : cfg_(cfg), baes_(enc_key), hmac_(mac_key)
{
    require(cfg_.unit_bytes >= k_aes_block_bytes && cfg_.unit_bytes % k_aes_block_bytes == 0,
            "Secure_memory: unit must be a multiple of 16 bytes");
}

crypto::Mac_context Secure_memory::context_for(Addr addr, u64 vn, u32 layer_id,
                                               u32 fmap_idx, u32 blk_idx)
{
    crypto::Mac_context ctx;
    ctx.pa = addr;
    ctx.vn = vn;
    ctx.layer_id = layer_id;
    ctx.fmap_idx = fmap_idx;
    ctx.blk_idx = blk_idx;
    return ctx;
}

Secure_memory::Cell Secure_memory::find(Addr addr, const char* who, u64& page_no,
                                        Page*& page) const
{
    const u64 unit = addr / cfg_.unit_bytes;
    const u64 no = unit / k_page_units;
    if (page == nullptr || no != page_no) {
        const auto it = pages_.find(no);
        page = it == pages_.end() ? nullptr : it->second.get();
        page_no = no;
    }
    const Cell c{page, unit % k_page_units};
    // An unaligned address names no unit, exactly like an unwritten one.
    if (page == nullptr || page->onchip_vn[c.slot] == 0 || addr % cfg_.unit_bytes != 0)
        throw Seda_error(std::string(who) + ": unit never written");
    return c;
}

Secure_memory::Cell Secure_memory::find(Addr addr, const char* who) const
{
    u64 page_no = 0;
    Page* page = nullptr;
    return find(addr, who, page_no, page);
}

std::span<const Secure_memory::Write_slot> Secure_memory::stage_writes(
    std::span<const Unit_write> batch)
{
    obs::Stage_span span(obs::Stage::stage_writes);
    // Validate everything up front: a bad entry must throw before any VN is
    // bumped or slot located, so a rejected batch leaves no half-staged
    // (never-encrypted) units behind.
    const Bytes ub = cfg_.unit_bytes;
    for (const Unit_write& w : batch) {
        require(w.addr % ub == 0, "Secure_memory::write: unaligned address");
        require(w.plaintext.size() == ub, "Secure_memory::write: plaintext must be one unit");
    }
    require(batch.size() <= std::numeric_limits<u32>::max(),
            "Secure_memory::write: batch too large");

    // A fresh generation per call marks which slots this batch has touched;
    // on wrap-around, old stamps could alias the new generation, so clear.
    if (++stamp_gen_ == 0) {
        for (auto& [no, page] : pages_) page->stamp.fill(0);
        stamp_gen_ = 1;
    }
    staged_.clear();
    staged_.reserve(batch.size());
    u64 page_no = 0;
    Page* page = nullptr;
    for (const Unit_write& w : batch) {
        const u64 unit = w.addr / ub;
        if (page == nullptr || unit / k_page_units != page_no) {
            page_no = unit / k_page_units;
            auto& owned = pages_[page_no];
            if (!owned) owned = std::make_unique<Page>(ub);
            page = owned.get();
        }
        const std::size_t slot = unit % k_page_units;
        if (page->onchip_vn[slot] == 0) ++unit_count_;
        const u64 vn = ++page->onchip_vn[slot];  // increment on every write (Eq. 1)
        page->stored_vn[slot] = vn;  // only consulted when VNs are kept off-chip
        // A repeated address inside the batch supersedes the earlier entry:
        // serial ordering leaves only the last payload (under the last VN)
        // in storage, so only that slot gets encrypted.
        if (page->stamp[slot] == stamp_gen_) staged_[page->last_slot[slot]].src = nullptr;
        page->stamp[slot] = stamp_gen_;
        page->last_slot[slot] = static_cast<u32>(staged_.size());
        staged_.push_back({&w, page->slab.get() + slot * ub, &page->mac[slot], vn});
    }
    return staged_;
}

void Secure_memory::encrypt_slots(std::span<const Write_slot> slots,
                                  const crypto::Baes_engine& baes,
                                  const crypto::Hmac_engine& hmac, Bulk_scratch& scratch)
{
    // Lap boundaries reuse one clock read, so phase attribution adds no
    // extra reads over a single whole-call span.
    obs::Phase_timer phases;
    // Phase 0: every live slot's base OTP in one bulk AES call (the whole
    // flush streams through the cipher's interleaved backend at once).
    auto& otp_reqs = scratch.otp_reqs;
    otp_reqs.clear();
    otp_reqs.reserve(slots.size());
    for (const Write_slot& slot : slots) {
        if (slot.src == nullptr) continue;  // superseded in-batch
        otp_reqs.push_back({slot.src->addr, slot.vn});
    }
    scratch.otps.resize(otp_reqs.size());
    baes.otps_many(otp_reqs, scratch.otps);

    // Phase 1: B-AES every live slot in place in the slab (pad fan-out +
    // XOR lanes only -- the AES work happened in phase 0), gathering the
    // MAC inputs.
    auto& reqs = scratch.reqs;
    reqs.clear();
    reqs.reserve(otp_reqs.size());
    for (const Write_slot& slot : slots) {
        if (slot.src == nullptr) continue;
        const Unit_write& w = *slot.src;
        const std::span<u8> ct(slot.ciphertext, w.plaintext.size());
        std::memcpy(ct.data(), w.plaintext.data(), ct.size());
        baes.crypt_with_base(ct, w.addr, slot.vn, scratch.otps[reqs.size()], scratch.pads);
        reqs.push_back({ct, context_for(w.addr, slot.vn, w.layer_id, w.fmap_idx, w.blk_idx)});
    }
    phases.lap(obs::Stage::baes);

    // Phase 2: one bulk-HMAC call MACs the whole run.
    scratch.macs.resize(reqs.size());
    hmac.positional_macs(reqs, scratch.macs);
    std::size_t live = 0;
    for (const Write_slot& slot : slots)
        if (slot.src != nullptr) *slot.mac = scratch.macs[live++];
    phases.lap(obs::Stage::bulk_mac);
}

void Secure_memory::read_units_with(std::span<const Unit_read> batch,
                                    const crypto::Baes_engine& baes,
                                    const crypto::Hmac_engine& hmac, Bulk_scratch& scratch,
                                    std::span<Verify_status> out_status) const
{
    require(batch.size() == out_status.size(),
            "Secure_memory::read_units: status span must match batch");
    obs::Phase_timer phases;
    const Bytes ub = cfg_.unit_bytes;

    // Phase 1: validate and locate every entry before any output is
    // touched, gathering the expected-MAC inputs (mirrors stage_writes's
    // all-or-nothing validation on the write side).
    auto& located = scratch.located;
    auto& reqs = scratch.reqs;
    located.resize(batch.size());
    reqs.resize(batch.size());
    u64 page_no = 0;
    Page* page = nullptr;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Unit_read& r = batch[i];
        require(r.out.size() == ub, "Secure_memory::read: out must be one unit");
        const Cell c = find(r.addr, "Secure_memory::read", page_no, page);
        // Freshness source: the trusted on-chip VN, or (vulnerably) whatever
        // the untrusted memory claims.
        const u64 stored_vn = c.page->stored_vn[c.slot];
        const u64 vn = cfg_.onchip_vns ? c.page->onchip_vn[c.slot] : stored_vn;
        located[i] = {ciphertext(c), c.page->mac[c.slot], stored_vn, vn};
        reqs[i] = {std::span<const u8>(located[i].ciphertext, ub),
                   context_for(r.addr, vn, r.layer_id, r.fmap_idx, r.blk_idx)};
    }
    phases.lap(obs::Stage::locate);

    // Phase 2: every expected MAC through the bulk HMAC pipeline at once.
    auto& expected = scratch.macs;
    expected.resize(batch.size());
    hmac.positional_macs(reqs, expected);
    phases.lap(obs::Stage::bulk_mac);

    // Phase 3: compare per unit -- detection still fires per unit inside
    // the batch -- and gather the verified units' base OTPs into one bulk
    // AES call.
    auto& otp_reqs = scratch.otp_reqs;
    otp_reqs.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Bulk_scratch::Located& u = located[i];
        if (expected[i] != u.mac) {
            // With on-chip VNs a stale-but-self-consistent unit fails
            // exactly here: its MAC was minted under an older VN.
            out_status[i] = cfg_.onchip_vns && u.stored_vn != u.vn
                                ? Verify_status::replay_detected
                                : Verify_status::mac_mismatch;
            continue;
        }
        out_status[i] = Verify_status::ok;
        otp_reqs.push_back({batch[i].addr, u.vn});
    }
    scratch.otps.resize(otp_reqs.size());
    baes.otps_many(otp_reqs, scratch.otps);

    // Phase 4: decrypt the verified units (pad fan-out + XOR lanes only).
    std::size_t live = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (out_status[i] != Verify_status::ok) continue;
        const Unit_read& r = batch[i];
        std::memcpy(r.out.data(), located[i].ciphertext, ub);
        baes.crypt_with_base(r.out, r.addr, located[i].vn, scratch.otps[live++],
                             scratch.pads);
    }
    phases.lap(obs::Stage::verify);
}

void Secure_memory::write(Addr addr, std::span<const u8> plaintext, u32 layer_id,
                          u32 fmap_idx, u32 blk_idx)
{
    const Unit_write w{addr, plaintext, layer_id, fmap_idx, blk_idx};
    write_units({&w, 1});
}

Verify_status Secure_memory::read(Addr addr, std::span<u8> out, u32 layer_id,
                                  u32 fmap_idx, u32 blk_idx)
{
    const Unit_read r{addr, out, layer_id, fmap_idx, blk_idx};
    Verify_status status = Verify_status::ok;
    read_units_with({&r, 1}, baes_, hmac_, scratch_, {&status, 1});
    return status;
}

void Secure_memory::write_units(std::span<const Unit_write> batch)
{
    encrypt_slots(stage_writes(batch), baes_, hmac_, scratch_);
}

std::vector<Verify_status> Secure_memory::read_units(std::span<const Unit_read> batch)
{
    std::vector<Verify_status> statuses(batch.size());
    read_units_with(batch, baes_, hmac_, scratch_, statuses);
    return statuses;
}

u64 Secure_memory::fold_all_macs() const
{
    crypto::Xor_mac_accumulator acc;
    for (const auto& [no, page] : pages_)
        for (std::size_t s = 0; s < k_page_units; ++s)
            if (page->onchip_vn[s] != 0) acc.fold(page->mac[s]);
    return acc.value();
}

void Secure_memory::tamper(Addr addr, std::size_t byte_offset, u8 xor_mask)
{
    const Cell c = find(addr, "Secure_memory::tamper");
    require(byte_offset < cfg_.unit_bytes, "Secure_memory::tamper: offset outside unit");
    u8& byte = ciphertext(c)[byte_offset];
    byte = static_cast<u8>(byte ^ xor_mask);
}

void Secure_memory::swap_units(Addr a, Addr b)
{
    const Cell ca = find(a, "Secure_memory::swap_units");
    const Cell cb = find(b, "Secure_memory::swap_units");
    if (ca.page == cb.page && ca.slot == cb.slot) return;
    std::swap_ranges(ciphertext(ca), ciphertext(ca) + cfg_.unit_bytes, ciphertext(cb));
    std::swap(ca.page->mac[ca.slot], cb.page->mac[cb.slot]);
    std::swap(ca.page->stored_vn[ca.slot], cb.page->stored_vn[cb.slot]);
}

Secure_memory::Stored_unit Secure_memory::snapshot(Addr addr) const
{
    const Cell c = find(addr, "Secure_memory::snapshot");
    const u8* ct = ciphertext(c);
    return {std::vector<u8>(ct, ct + cfg_.unit_bytes), c.page->mac[c.slot],
            c.page->stored_vn[c.slot]};
}

void Secure_memory::rollback(Addr addr, const Stored_unit& old)
{
    const Cell c = find(addr, "Secure_memory::rollback");
    require(old.ciphertext.size() == cfg_.unit_bytes,
            "Secure_memory::rollback: snapshot must be one unit");
    std::copy(old.ciphertext.begin(), old.ciphertext.end(), ciphertext(c));
    c.page->mac[c.slot] = old.mac;
    c.page->stored_vn[c.slot] = old.stored_vn;
}

void Secure_memory::corrupt_mac(Addr addr, u64 xor_mask)
{
    require(xor_mask != 0, "Secure_memory::corrupt_mac: mask must flip at least one bit");
    const Cell c = find(addr, "Secure_memory::corrupt_mac");
    c.page->mac[c.slot] ^= xor_mask;
}

}  // namespace seda::core
