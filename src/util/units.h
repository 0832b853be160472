// Size and time unit helpers.
//
// Capacities are expressed in bytes and converted to 4 KB blocks at the
// configuration boundary; simulated time is int64 nanoseconds everywhere.
#ifndef FLASHSIM_SRC_UTIL_UNITS_H_
#define FLASHSIM_SRC_UTIL_UNITS_H_

#include <cstdint>
#include <string>

namespace flashsim {

constexpr uint64_t kKiB = 1024ULL;
constexpr uint64_t kMiB = 1024ULL * kKiB;
constexpr uint64_t kGiB = 1024ULL * kMiB;
constexpr uint64_t kTiB = 1024ULL * kGiB;

constexpr int64_t kNanosecond = 1;
constexpr int64_t kMicrosecond = 1000;
constexpr int64_t kMillisecond = 1000 * kMicrosecond;
constexpr int64_t kSecond = 1000 * kMillisecond;

// "64 GiB" -> "64.0G"; human-readable sizes for report headers.
std::string FormatSize(uint64_t bytes);

// Nanoseconds -> "123.45us" style string.
std::string FormatDuration(int64_t ns);

// A double as printf's "%g" prints it ("0.5", "1e+10", "nan"); for messages
// that echo a bad input back.
std::string FormatNumber(double value);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_UNITS_H_
