// Architectural checkpoints: a snapshot of the register file, memory image
// and PC at an instruction boundary, with file serialization and a
// fast-forward API. A checkpoint captured after N interpreted instructions
// lets any later simulation (reference or detailed core) resume from
// instruction N with bit-identical architectural behaviour — the building
// block for interval sampling (sampling.hpp) and for sharing run state
// between machines.
//
// File format, version 1 (little-endian):
//   magic "CFIRCKP1" | u32 version | u32 reserved
//   | u64 pc | u64 executed | 64 x u64 registers
//   | u64 page_count | page_count x (u64 base_addr | 4096 page bytes)
//   | "CRC1" | u32 crc32   (shared footer, trace/blob.hpp)
// All-zero pages are dropped (reads of absent pages return zero). A
// checkpoint is cold: the functional warm state an interval starts from
// travels separately, in per-config warm sidecars (trace/manifest.hpp).
// The footer is required, so a truncated or bit-flipped checkpoint is
// rejected at load; any other "CFIRCKP" generation is a VersionError.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "mem/main_memory.hpp"

namespace cfir::trace {

inline constexpr char kCheckpointMagic[8] = {'C', 'F', 'I', 'R',
                                             'C', 'K', 'P', '1'};
inline constexpr uint32_t kCheckpointVersion = 1;

struct Checkpoint {
  uint64_t pc = 0;
  uint64_t executed = 0;  ///< instructions retired before this point
  std::array<uint64_t, isa::kNumLogicalRegs> regs{};
  mem::MainMemory memory;

  void save(const std::string& path) const;
  [[nodiscard]] static Checkpoint load(const std::string& path);
};

/// Runs the functional engine `n_insts` instructions from program start
/// (fresh memory, data image applied) and snapshots the result. Stops early
/// at HALT; check `executed` when exactness matters.
[[nodiscard]] Checkpoint fast_forward(const isa::Program& program,
                                      uint64_t n_insts);

/// One engine pass capturing a checkpoint at every boundary (sorted,
/// strictly increasing instruction counts; 0 snapshots the initial state).
/// Returns one checkpoint per boundary; boundaries past HALT repeat the
/// final state.
[[nodiscard]] std::vector<Checkpoint> interval_checkpoints(
    const isa::Program& program, const std::vector<uint64_t>& boundaries);

}  // namespace cfir::trace
