#include "src/util/units.h"

#include <cstdio>

namespace flashsim {

std::string FormatSize(uint64_t bytes) {
  char buf[48];
  const double b = static_cast<double>(bytes);
  if (bytes >= kTiB) {
    std::snprintf(buf, sizeof(buf), "%.1fT", b / static_cast<double>(kTiB));
  } else if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%.1fG", b / static_cast<double>(kGiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%.1fM", b / static_cast<double>(kMiB));
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "%.1fK", b / static_cast<double>(kKiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatDuration(int64_t ns) {
  char buf[48];
  const double v = static_cast<double>(ns);
  if (ns >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3fs", v / static_cast<double>(kSecond));
  } else if (ns >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.3fms", v / static_cast<double>(kMillisecond));
  } else if (ns >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.2fus", v / static_cast<double>(kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

std::string FormatNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace flashsim
