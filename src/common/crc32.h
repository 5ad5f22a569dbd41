// CRC32C (Castagnoli) for chunk payload and header integrity checks.
#pragma once

#include <cstdint>
#include <span>

namespace diesel {

/// CRC32C of `data`, continuing from `crc` (pass 0 to start). Runs the
/// SSE4.2 `crc32` instruction when the CPU has it, else the table loop.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc = 0);

namespace detail {

/// Portable byte-at-a-time table kernel: Crc32c's fallback and the oracle
/// the hardware kernel is tested against.
uint32_t Crc32cTable(std::span<const uint8_t> data, uint32_t crc = 0);

/// True when Crc32c dispatches to the hardware kernel on this CPU.
bool Crc32cHardwareActive();

}  // namespace detail
}  // namespace diesel
