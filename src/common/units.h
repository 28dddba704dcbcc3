#pragma once

/// \file units.h
/// Byte-size and time-unit literals plus human-readable formatting helpers.
///
/// Usage:
///   using namespace uc::units;
///   SimTime t = 150 * kUs;            // 150 microseconds in nanoseconds
///   uint64_t cap = 2 * kTiB;          // two tebibytes
///   double gbps = bytes_per_sec_to_gbs(rate);

#include <cstdint>
#include <string>

#include "common/types.h"

namespace uc {
namespace units {

// --- byte sizes (binary powers, matching device-geometry conventions) ---
inline constexpr std::uint64_t kKiB = 1024ull;
inline constexpr std::uint64_t kMiB = 1024ull * kKiB;
inline constexpr std::uint64_t kGiB = 1024ull * kMiB;
inline constexpr std::uint64_t kTiB = 1024ull * kGiB;

// --- decimal byte rates (storage vendors quote GB/s = 1e9 B/s) ---
inline constexpr double kKB = 1e3;
inline constexpr double kMB = 1e6;
inline constexpr double kGB = 1e9;

// --- time, expressed in SimTime nanoseconds ---
inline constexpr SimTime kNs = 1;
inline constexpr SimTime kUs = 1000ull;
inline constexpr SimTime kMs = 1000ull * kUs;
inline constexpr SimTime kSec = 1000ull * kMs;

/// Converts a byte count and a duration into decimal gigabytes per second.
constexpr double bytes_over_time_gbs(std::uint64_t bytes, SimTime duration_ns) {
  return duration_ns == 0 ? 0.0
                          : static_cast<double>(bytes) / static_cast<double>(duration_ns);
  // bytes/ns == GB/s exactly (1e9 B / 1e9 ns).
}

/// Converts MB/s (decimal) into the nanoseconds needed per transferred byte.
constexpr double ns_per_byte_from_mbps(double mb_per_s) {
  return mb_per_s <= 0.0 ? 0.0 : 1000.0 / mb_per_s;
}

/// Time to move `bytes` through a pipe of `ns_per_byte`, truncated to whole
/// nanoseconds.
constexpr SimTime transfer_ns(std::uint64_t bytes, double ns_per_byte) {
  return static_cast<SimTime>(static_cast<double>(bytes) * ns_per_byte);
}

/// Converts seconds (double) into SimTime nanoseconds.
constexpr SimTime seconds(double s) { return static_cast<SimTime>(s * 1e9); }

}  // namespace units

/// "4.0KiB", "2.0TiB", ... binary formatting for capacities.
std::string format_bytes(std::uint64_t bytes);

/// "153ns", "42.1us", "1.5ms", "3.2s" — picks the natural unit.
std::string format_duration(SimTime ns);

/// "2.70 GB/s" / "305 MB/s" — decimal bandwidth formatting.
std::string format_bandwidth_gbs(double gb_per_s);

}  // namespace uc
