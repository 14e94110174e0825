#include "branch/mbs.hpp"
#include <cstddef>

#include <cassert>

namespace cfir::branch {

MbsTable::MbsTable(uint32_t sets, uint32_t ways) : sets_(sets), ways_(ways) {
  assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0);
  entries_.assign(static_cast<size_t>(sets_) * ways_, Entry{});
}

const MbsTable::Entry* MbsTable::find(uint64_t pc) const {
  const uint32_t set = static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  const size_t base = static_cast<size_t>(set) * ways_;
  for (uint32_t w = 0; w < ways_; ++w) {
    const Entry& e = entries_[base + w];
    if (e.valid && e.tag == pc) return &e;
  }
  return nullptr;
}

MbsTable::Entry& MbsTable::find_or_alloc(uint64_t pc) {
  const uint32_t set = static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  const size_t base = static_cast<size_t>(set) * ways_;
  for (uint32_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (e.valid && e.tag == pc) return e;
  }
  size_t victim = base;
  for (uint32_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid) { victim = base + w; break; }
    if (e.lru < entries_[victim].lru) victim = base + w;
  }
  Entry& v = entries_[victim];
  v = Entry{};
  v.tag = pc;
  v.valid = true;
  return v;
}

void MbsTable::update(uint64_t pc, bool taken) {
  Entry& e = find_or_alloc(pc);
  e.lru = ++stamp_;
  if (taken == e.last_taken) {
    if (taken) {
      if (e.counter < kMax) ++e.counter;
    } else {
      if (e.counter > kMin) --e.counter;
    }
  } else {
    e.counter = kMid;
  }
  e.last_taken = taken;
}

bool MbsTable::is_hard(uint64_t pc) const {
  const Entry* e = find(pc);
  if (e == nullptr) return false;
  return e->counter != kMax && e->counter != kMin;
}

uint64_t MbsTable::debug_digest() const {
  util::Digest d;
  d.u32(sets_).u32(ways_).u64(stamp_);
  for (const Entry& e : entries_) {
    d.u64(e.tag).u8(e.counter).boolean(e.last_taken).boolean(e.valid);
    d.u64(e.lru);
  }
  return d.value();
}

void MbsTable::serialize(util::ByteWriter& out) const {
  out.u32(sets_);
  out.u32(ways_);
  out.u64(stamp_);
  util::write_sparse_table(out, entries_, Entry{},
                           [](util::ByteWriter& o, const Entry& e) {
                             o.u64(e.tag);
                             o.u8(e.counter);
                             o.boolean(e.last_taken);
                             o.boolean(e.valid);
                             o.u64(e.lru);
                           });
}

void MbsTable::deserialize(util::ByteReader& in) {
  if (in.u32() != sets_ || in.u32() != ways_) {
    throw util::WarmGeometryError("MbsTable: warm-state geometry mismatch");
  }
  stamp_ = in.u64();
  util::read_sparse_table(in, entries_, Entry{},
                          [](util::ByteReader& i, Entry& e) {
                            e.tag = i.u64();
                            e.counter = i.u8();
                            e.last_taken = i.boolean();
                            e.valid = i.boolean();
                            e.lru = i.u64();
                          });
}

uint64_t MbsTable::storage_bytes() const {
  // Paper section 3.1: 4 ways * 64 sets * 8 bytes per element = 2048 bytes.
  return static_cast<uint64_t>(sets_) * ways_ * 8;
}

}  // namespace cfir::branch
