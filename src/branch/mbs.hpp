// MBS (Mispredicted Branch Status) table, paper section 2.3.1: a 4-way,
// 64-set table of 4-bit up/down counters that classifies static branches as
// highly biased (easy) or hard to predict. The counter moves toward the
// taken (up) / not-taken (down) extreme while the branch repeats its
// previous outcome and snaps to the middle when the direction flips; a
// branch is "hard" whenever the counter sits strictly between the extremes.
#pragma once

#include <cstdint>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::branch {

class MbsTable : public util::Warmable {
 public:
  explicit MbsTable(uint32_t sets = 64, uint32_t ways = 4);

  /// Records a resolved outcome for the branch at `pc`. The detailed core
  /// calls this at commit, so the same call doubles as the functional
  /// warming hook (stream committed branches in commit order).
  void update(uint64_t pc, bool taken);

  /// True when the branch is considered hard to predict — i.e. its counter
  /// is not saturated at either extreme. Unknown branches are treated as
  /// easy (the control-independence scheme stays off until the branch shows
  /// a history), matching the paper's "highly biased" filter.
  [[nodiscard]] bool is_hard(uint64_t pc) const;

  /// Storage the structure would occupy in hardware (section 3.1 sizing).
  [[nodiscard]] uint64_t storage_bytes() const;

  /// Digest over the full table state (tags, counters, LRU stamps).
  [[nodiscard]] uint64_t debug_digest() const override;
  void serialize(util::ByteWriter& out) const override;
  void deserialize(util::ByteReader& in) override;

 private:
  struct Entry {
    uint64_t tag = 0;
    uint8_t counter = kMid;
    bool last_taken = false;
    bool valid = false;
    uint64_t lru = 0;

    bool operator==(const Entry&) const = default;
  };
  static constexpr uint8_t kMax = 15;
  static constexpr uint8_t kMin = 0;
  static constexpr uint8_t kMid = 8;

  [[nodiscard]] const Entry* find(uint64_t pc) const;
  Entry& find_or_alloc(uint64_t pc);

  uint32_t sets_;
  uint32_t ways_;
  uint64_t stamp_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace cfir::branch
