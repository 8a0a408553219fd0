// Seeded file corruption for persistence robustness tests.
//
// The loaders' fault model (docs/robustness.md) is "any prefix, any byte":
// a crawl box can die mid-write (truncation) and disks/transfer can flip
// bytes. These helpers apply exactly those corruptions, deterministically
// from a util::Rng, so a fuzz loop over seeds is reproducible: the
// robustness suite replays 1000 seeded corruptions over valid "ALSG"/"AOBS"
// files and asserts every load ends in a typed error or a clean success —
// never a crash, hang, or garbage value (verified under ASan).
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>

#include "chaos/fault.hpp"
#include "util/rng.hpp"

namespace appstore::chaos {

/// Simulates a process kill at an exact byte offset of one file's write
/// stream (the WAL crash-fuzz seam, docs/durability.md). The writer asks
/// admit(n) before each n-byte write and may only write the granted prefix;
/// bytes past the armed offset are denied. After a short grant the writer
/// flushes what landed and calls fire(), which throws
/// InjectedFault{kTornWrite} — the on-disk state is then exactly the first
/// `offset` bytes of the stream, including a tear mid-record or mid-header.
class KillAtOffset {
 public:
  explicit KillAtOffset(std::uint64_t offset) noexcept : remaining_(offset) {}

  /// Grants min(size, bytes left before the kill point) and advances the
  /// stream position by the grant. A grant below `size` means the kill
  /// point is inside this write.
  [[nodiscard]] std::uint64_t admit(std::uint64_t size) noexcept {
    const std::uint64_t granted = std::min(size, remaining_);
    remaining_ -= granted;
    consumed_ += granted;
    if (granted < size) tripped_ = true;
    return granted;
  }

  /// Whether any write has been cut short yet.
  [[nodiscard]] bool tripped() const noexcept { return tripped_; }

  /// Bytes granted so far — the stream position of the seam. A probe run
  /// armed past the end of the stream reads the total here, which a fuzz
  /// harness then uses to draw kill offsets covering every byte.
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }

  [[noreturn]] void fire(const std::string& what) const {
    throw InjectedFault(FaultKind::kTornWrite, "kill-at-offset: " + what);
  }

 private:
  std::uint64_t remaining_;
  std::uint64_t consumed_ = 0;
  bool tripped_ = false;
};

/// Truncates the file to `size` bytes (size must not exceed the current
/// size). Throws std::runtime_error on I/O failure.
void truncate_file(const std::filesystem::path& path, std::uint64_t size);

/// XORs the byte at `offset` with `mask` (mask must be non-zero so the byte
/// actually changes). Throws std::runtime_error on I/O failure or an
/// out-of-range offset.
void flip_byte(const std::filesystem::path& path, std::uint64_t offset,
               std::uint8_t mask);

/// Applies one random corruption — a truncation to a random prefix or a
/// random single-byte flip — drawn from `rng`. Returns a human-readable
/// description ("truncate 1234 -> 57", "flip byte 12 ^ 0x40") for test
/// diagnostics. The file must be non-empty.
std::string corrupt_file(const std::filesystem::path& path, util::Rng& rng);

}  // namespace appstore::chaos
